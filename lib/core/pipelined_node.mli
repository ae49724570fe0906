(** Pipelined Moonshot (Figure 3), optionally extended with the explicit
    pre-commit phase of Commit Moonshot (Figure 4) via [?precommit].

    The node is fully event-driven: the harness calls {!start} once and then
    {!handle} for every delivered message.  All other behaviour (view
    timers, optimistic proposals, certificate formation from multicast
    votes, Bracha-style timeout amplification) happens inside. *)

open Bft_types

type t

(** [create ?precommit ?equivocate ?lso env] — [precommit] (default
    [false]) enables Commit Moonshot's pre-commit votes and alternative
    commit rule; [equivocate] makes the node propose conflicting blocks to
    the two halves of the network when it leads (Byzantine behaviour for
    safety tests); [lso] (default [false]) selects the leader-speaks-once
    variant that skips the normal re-proposal after an optimistic proposal —
    Section III explains why this sacrifices reorg resilience.

    With [?wal], the node records its safety-critical state to the given
    write-ahead log before every binding action, and {!start} resumes from
    it when it already holds a record — see {!Wal} for the crash-recovery
    story. *)
val create :
  ?precommit:bool ->
  ?equivocate:bool ->
  ?lso:bool ->
  ?wal:Wal.t ->
  Message.t Env.t ->
  t

val start : t -> unit
val handle : t -> src:int -> Message.t -> unit

(** {2 Introspection (tests, metrics)} *)

val current_view : t -> int

(** The highest view this node timed out of; a seam for the tests that
    check it survives a WAL restart. *)
val timeout_view : t -> int
val committed : t -> int

(** First-class protocol modules for the harness. *)
module Protocol : Bft_types.Protocol_intf.S with type msg = Message.t and type node = t

module Commit_protocol :
  Bft_types.Protocol_intf.S with type msg = Message.t and type node = t

(** The leader-speaks-once variant of Pipelined Moonshot (ablation). *)
module Lso_protocol :
  Bft_types.Protocol_intf.S with type msg = Message.t and type node = t
