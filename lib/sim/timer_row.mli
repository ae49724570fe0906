(** Timer records re-armed in place: the mechanism under both substrates'
    timers, {!Engine.set_timer} and the socket executor's.

    {2 The re-arm contract}

    A timer is one record per node and callback, the callback compared
    physically.  Once an arming has fired or been cancelled the record is
    idle, and the next arming of that callback on that node arms the same
    record: it allocates nothing, and the cancel thunk is the record's
    own, made with it.  So a thunk called after its arming ended cancels
    whatever arming the record holds now, and a node keeps only the
    latest thunk.  A callback set again while its record is pending takes
    a fresh record, and both armings fire.

    An arming takes the sequence number a fresh push would have taken, so
    armings pop in the order they would with one record each.  A
    cancelled or replaced arming stays in its owner's heap until popped;
    the owner tells it from the live one with {!live} and skips it.

    A node's row keeps {!slots} records.  A callback missing from the row
    takes a fresh record, which overwrites the oldest one; an overwritten
    record still fires or cancels, and only its reuse is lost.  Every
    protocol re-arms at most two callbacks per node (test_runtime's
    [timers] group counts them). *)

(** One callback's timer, with a handle its owner sets: the value the
    owner's heap or scheduler carries for it. *)
type 'h t

(** [create handle action] is an idle record. *)
val create : 'h -> (unit -> unit) -> 'h t
val handle : 'h t -> 'h
val set_handle : 'h t -> 'h -> unit

(** Disarms the record's current arming; made once with the record. *)
val cancel : 'h t -> unit -> unit

(** Neither fired nor cancelled since it was last armed. *)
val armed : 'h t -> bool

(** [arm tm q times i v] arms [tm]: it takes a sequence number from [q]
    and pushes [v] keyed by [(times.(i), seq)]. *)
val arm : 'h t -> 'a Event_queue.t -> float array -> int -> 'a -> unit

(** [hold tm] arms [tm] outside any queue, for a scheduler that holds the
    record's handle itself; {!live} is then never asked. *)
val hold : 'h t -> unit

(** [live tm seq]: the heap entry of [tm] keyed by [seq] is its current,
    armed arming.  The shape {!Event_queue.retain} takes. *)
val live : 'h t -> int -> bool

(** Disarm [tm], then run its callback, which may arm it again. *)
val fire : 'h t -> unit

(** Records kept per node. *)
val slots : int

(** One row per node. *)
type 'h rows

(** [rows n] holds [n] empty rows; a row allocates on its first record. *)
val rows : int -> 'h rows

(** [claim rows i action h] is node [i]'s idle record for [action], or a
    fresh one whose handle is [h], put in the row. *)
val claim : 'h rows -> int -> (unit -> unit) -> 'h -> 'h t

(** Empty node [i]'s row (a crash): later armings take fresh records. *)
val drop : 'h rows -> int -> unit

(** [wrap_once wrap] is [wrap], memoized per callback (compared
    physically) over the last {!slots} callbacks: a layer that wraps each
    callback before arming it hands the substrate the same wrapper on
    every re-arm, so the substrate can reuse its record. *)
val wrap_once : ((unit -> unit) -> unit -> unit) -> (unit -> unit) -> unit -> unit
