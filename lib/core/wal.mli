(** Write-ahead log for crash recovery.

    A BFT replica that forgets its voting state can be made to vote twice in
    a view after a restart, breaking quorum intersection and with it safety.
    Production deployments persist the safety-critical slice of state to
    disk before any vote hits the wire; this module is the in-memory
    stand-in the simulation uses (a real deployment would back {!record}
    with an fsync'd file).

    The node records {!state} {e before} sending the message that makes it
    binding; on restart, {!Pipelined_node.create} with the same log resumes
    from the recorded view with its vote slots and lock intact, and the
    block {!Sync} refills everything else. *)

open Bft_types

type t

(** The safety-critical state: current view, lock, highest timeout view and
    the vote slots for the current view. *)
type state = {
  cur_view : int;
  lock : Cert.t;
  timeout_view : int;
  voted_opt : Block.t option;
  voted_main : bool;
}

val create : unit -> t

(** Durably replace the latest state (a production WAL would append and
    compact; the latest entry is all recovery needs). *)
val record : t -> state -> unit

val load : t -> state option

(** [snapshot t encode] is [encode t], computed once per record: the
    result is cached until the next {!record}, so repeated calls on an
    unchanged log return the physically same string without allocating.
    [encode] must be a pure function of {!load}. *)
val snapshot : t -> (t -> string) -> string

(** Number of records written (introspection for tests). *)
val writes : t -> int

(** Digest of the latest record ({!Hash.null} when empty).  The write
    counter is excluded: recovery reads only the latest record, so logs
    with equal latest records are behaviourally equivalent. *)
val digest : t -> Hash.t
