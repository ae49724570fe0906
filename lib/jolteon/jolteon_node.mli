(** The Jolteon replica (baseline protocol of the paper's evaluation).

    Two-chain commit rule (a block commits when its direct child in the
    consecutive round is certified), votes unicast to the next leader who
    aggregates them into a QC and carries it in its own proposal, all-to-all
    timeouts with high QCs and a quadratic view change.  Round timers are
    4 Delta (Table I's view length). *)

open Bft_types

type t

(** [commit_depth] (default 2) selects the consecutive-view commit rule:
    2 is Jolteon's two-chain; 3 yields the chained-HotStuff baseline exposed
    by {!Hotstuff}.  With [?wal], the node records its safety-critical state
    (round, high QC, vote and timeout slots) before every binding send, and
    {!start} resumes from it when it already holds a record — crash
    recovery, see {!Moonshot.Wal}. *)
val create :
  ?equivocate:bool ->
  ?commit_depth:int ->
  ?wal:Moonshot.Wal.t ->
  Jolteon_msg.t Env.t ->
  t
val start : t -> unit
val handle : t -> src:int -> Jolteon_msg.t -> unit

(** {2 Introspection (tests, metrics)} *)

val committed : t -> int

module Protocol :
  Bft_types.Protocol_intf.S with type msg = Jolteon_msg.t and type node = t
