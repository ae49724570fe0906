(** Block creation and proposal dissemination, shared by every node
    implementation of the suite.

    Honest leaders build the deterministic block for a view (fixed payload
    [b_v], so an optimistic and a normal proposal with the same parent carry
    the same block) and multicast it.  With [equivocate:true] the sender
    behaves Byzantine: it crafts a conflicting block and serves each half of
    the network a different one — the attack the safety tests exercise. *)

open Bft_types

(** [send env ~equivocate ~kind ~view ~parent wrap] builds the block(s),
    reports them via [env.on_propose] (and, in traced runs, a
    {!Bft_types.Probe.Proposal_sent} event of [kind]) and disseminates
    [wrap block]. *)
val send :
  'msg Env.t ->
  equivocate:bool ->
  kind:Probe.proposal_kind ->
  view:int ->
  parent:Block.t ->
  (Block.t -> 'msg) ->
  unit
