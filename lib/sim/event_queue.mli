(** Priority queue of timestamped events.

    Events pop in nondecreasing time order; events with equal timestamps pop
    in insertion (FIFO) order, which keeps simulations fully deterministic. *)

type 'a t

(** An empty queue. *)
val create : unit -> 'a t

(** [push t ~time ev] schedules [ev].  Raises [Invalid_argument] on a
    non-finite time.  Passing [time] to this module boxes it; the engine
    uses {!push_from}. *)
val push : 'a t -> time:float -> 'a -> unit

(** [push_from t times i ev] is [push t ~time:times.(i) ev], reading the
    time from a float array slot so that no boxed float is made.  In the
    dev profile every library module is compiled [-opaque], so a float
    argument or result that crosses a module boundary is boxed; slots are
    how the engine passes event times without allocating. *)
val push_from : 'a t -> float array -> int -> 'a -> unit

(** [reserve t extra] pre-grows the queue to hold [extra] further events —
    the bulk-push path: a multicast fan-out reserves its n - 1 pushes once
    instead of re-checking (and possibly re-growing) capacity per push. *)
val reserve : 'a t -> int -> unit

(** Earliest event, or [None] when empty. *)
val pop : 'a t -> (float * 'a) option

(** [min_time_into t times i] stores the time of the earliest event in
    [times.(i)] (a slot, not a result, so no boxed float is made).  Raises
    [Invalid_argument] when empty.  Together with {!take} this is the
    engine's allocation-free drain path ({!pop} boxes a [Some] and a tuple
    per event). *)
val min_time_into : 'a t -> float array -> int -> unit

(** Pop the earliest event, returning only its value.  Raises
    [Invalid_argument] when empty; read {!min_time_into} first if the
    timestamp is needed. *)
val take : 'a t -> 'a

(** Whether the queue holds no events. *)
val is_empty : 'a t -> bool

(** Number of events currently queued. *)
val size : 'a t -> int
