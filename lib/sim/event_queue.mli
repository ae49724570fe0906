(** Priority queue of timestamped events.

    Events pop in nondecreasing time order; events with equal timestamps pop
    in insertion (FIFO) order, which keeps simulations fully deterministic.
    Each entry is keyed by its time and a sequence number taken from one
    per-queue counter.

    One entry can also stand for a sorted sequence of events (the engine's
    fan-out runs and CPU lanes): each event takes its sequence number with
    {!take_seq} when it is made, the entry is pushed keyed by its first
    event ({!push_seq_from}), and its owner consumes it from the top,
    re-keying it with {!replace_top_from} or removing it with {!take}.
    Because keys are unique, events then leave in exactly the order they
    would have if each had been pushed on its own. *)

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

(** [take_seq t] reserves the sequence number the next push would have
    taken: later pushes take later numbers. *)
val take_seq : 'a t -> int

(** [take_seqs t k] reserves [k] consecutive sequence numbers and returns
    the first. *)
val take_seqs : 'a t -> int -> int

(** [push_seq_from t times i ~seq ev] schedules [ev] keyed by
    [(times.(i), seq)], with [seq] from {!take_seq}.  Keys must be unique:
    two entries with the same key pop in an unspecified order. *)
val push_seq_from : 'a t -> float array -> int -> seq:int -> 'a -> unit

(** Earliest event, or [None] when empty.  Test seam: the reference drain
    test_sim's queue-model checks compare {!min_time_into} and {!take}
    against. *)
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

(** The earliest event's value, left in place.  Raises [Invalid_argument]
    when empty. *)
val top : 'a t -> 'a

(** The earliest entry's sequence number: the one it was pushed or last
    re-keyed with.  Raises [Invalid_argument] when empty.  An owner that
    pushes one value under several keys tells the live key from stale ones
    with it. *)
val top_seq : 'a t -> int

(** [replace_top_from t times i ~seq] re-keys the earliest entry to
    [(times.(i), seq)] and restores the heap order: an entry that stands
    for a sequence of events moves to its next event's key.  Raises
    [Invalid_argument] when empty or on a non-finite time. *)
val replace_top_from : 'a t -> float array -> int -> seq:int -> unit

(** [retain t keep] drops every entry for which [keep value seq] is false,
    in place: what is left pops in the same order as before.  An owner
    whose dead entries would otherwise wait for their time drops them with
    it instead of growing the queue. *)
val retain : 'a t -> ('a -> int -> bool) -> unit

(** Whether the queue holds no events. *)
val is_empty : 'a t -> bool

(** Number of events currently queued. *)
val size : 'a t -> int
