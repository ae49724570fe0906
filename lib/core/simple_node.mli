(** Simple Moonshot (Figure 1).

    The first Moonshot protocol: one untyped vote per view, locks updated
    only on view transitions, status messages reporting locks to the next
    leader, a 2-Delta proposal wait after entering a view without the
    previous view's certificate, and a 5-Delta view timer.  Optimistically
    responsive only under consecutive honest leaders. *)

open Bft_types

type t

(** With [?wal], the node records its safety-critical state (view, lock,
    vote slot, timeout flag) before every binding action, and {!start}
    resumes from it when it already holds a record — crash recovery, see
    {!Wal}. *)
val create : ?equivocate:bool -> ?wal:Wal.t -> Message.t Env.t -> t
val start : t -> unit
val handle : t -> src:int -> Message.t -> unit

(** {2 Introspection (tests, metrics)} *)

val current_view : t -> int
val committed : t -> int

module Protocol : Bft_types.Protocol_intf.S with type msg = Message.t and type node = t
