(** State and machinery shared by all Moonshot node implementations: the
    local block store, the commit log, vote aggregation into certificates,
    the per-view certificate table and the two-chain commit rule. *)

open Bft_types

type 'msg t

val create : 'msg Env.t -> 'msg t
val env : 'msg t -> 'msg Env.t
val store : 'msg t -> Bft_chain.Block_store.t
val log : 'msg t -> Bft_chain.Commit_log.t

(** Record a block header seen in any message; retries deferred commits.
    A retry walks only the deferred block's uncommitted suffix (see
    {!commit}). *)
val note_block : 'msg t -> Block.t -> unit

(** [add_vote t ~signer ~kind block] accumulates a vote.  Returns the
    freshly completed certificate when this vote was the one that reached a
    quorum (at most once per (view, kind, block)), and reports the quorum
    as a {!Bft_types.Probe.Cert_formed} event in traced runs.  Returns
    [None] at the quorum too when the node already holds a [kind]
    certificate for [block] (from gossip or a proposal): {!record_cert}
    would refuse it, so none is built.  A vote on a key completed
    long ago (see [Bft_crypto.Accumulator]'s late votes) forms none for
    the same reason. *)
val add_vote : 'msg t -> signer:int -> kind:Vote_kind.t -> Block.t -> Cert.t option

(** [record_cert t c] files a certificate in the per-view table.  Returns
    [false] when an identical certificate was already recorded.  The table
    is an array indexed by view up to a reach of twice the views holding
    a certificate plus 1,024; a view past it (a peer can name any view)
    goes to a sparse table instead, so no certificate grows memory by
    more than a bounded amount.  Does not
    run the commit rule — callers do that via {!commit_chains} so they
    control ordering relative to their other rules. *)
val record_cert : 'msg t -> Cert.t -> bool

(** Highest-ranked certificate recorded so far (genesis initially). *)
val high_cert : 'msg t -> Cert.t

(** Generalized [depth]-chain commit rule: a window of [depth] consecutive
    views whose recorded certificates form a parent chain commits the block
    certified at the window's base.  [depth = 2] is the Moonshot/Jolteon
    rule (Figure 1's Direct Commit, run from both sides of [c]: [B_k]'s
    parent when some recorded [C_{v-1}] certifies it, and [B_k] itself when
    some recorded [C_{v+1}] certifies a child of [B_k]); [depth = 3] is
    chained HotStuff's.  {!commit}s every block unlocked by recording [c],
    highest window first, allocating nothing beyond what the commits keep.
    Raises [Invalid_argument] if [depth < 2]. *)
val commit_chains : 'msg t -> depth:int -> Cert.t -> unit

(** Commit a block (and its ancestors).  If an ancestor header has not
    arrived yet the commit is deferred and retried on the next
    {!note_block}.  Both the connectivity check and the commit walk only
    the uncommitted suffix ending at the block, so a commit costs the new
    blocks, not the chain height; the full walk to genesis runs only when
    the suffix meets the committed prefix at a different hash (a fork). *)
val commit : 'msg t -> Block.t -> unit

(** Number of blocks this node has committed (genesis excluded). *)
val committed : 'msg t -> int

(** {2 Hooks for the block synchronizer ({!Sync})} *)

(** The known block whose parent is the first missing ancestor blocking a
    deferred commit; its proposer is a hint for who certainly had that
    parent.  Raises [Not_found] when no deferred commit lacks an
    ancestor. *)
val first_missing : 'msg t -> Block.t

(** [chain_segment t hash ~max] is the block with [hash] plus up to
    [max - 1] of its ancestors present in the store, oldest first; [[]]
    when the block itself is unknown. *)
val chain_segment : 'msg t -> Hash.t -> max:int -> Block.t list

(** Canonical digest of the shared state (store, commit log, vote
    accumulator, certificate table, high certificate, deferred commits)
    for model-checker state matching.  Independent of hashtable iteration
    order. *)
val state_hash : 'msg t -> Hash.t
