(** Run metrics, following the paper's definitions (Section VI), for both
    substrates: the simulator harness feeds the collector online, and a
    socket run's proposal and commit records are replayed into it in time
    order after the run ([Bft_runtime.Net_harness]).  This is the one
    place that decides when a block reaches its commit quorum.

    The definitions:

    - {e throughput}: blocks committed by at least [2f + 1] nodes during the
      run;
    - {e transfer rate}: committed payload bytes per second;
    - {e latency}: time from a block's creation (its first proposal) to its
      commit by the [(2f + 1)]-th node, averaged over committed blocks.

    The collector also acts as a global safety checker: it records the first
    block committed at every height and raises
    [Bft_chain.Commit_log.Safety_violation] the moment any node commits a
    conflicting block at that height. *)

open Bft_types

type t

val create : n:int -> unit -> t

(** The commit quorum [2f + 1], with [f = (n - 1) / 3], of an [n]-node
    run: the number of nodes whose commit of a block ends its latency.
    It equals the protocol quorum [n - f] only when [n = 3f + 1]; both
    substrates time commits against this one value. *)
val latency_quorum : n:int -> int

(** [on_propose t ~now block] records a proposal of [block]; [now ()] is
    read, as its creation time, only for the first one. *)
val on_propose : t -> now:(unit -> float) -> Block.t -> unit

(** [on_commit t ~node ~now block] records [node]'s commit of [block].
    [now ()] is the time in ms; it is read only by the commit that
    completes the block's quorum (the [(2f+1)]-th distinct node), so any
    other commit allocates nothing.  A run passes one [now] to every
    call. *)
val on_commit : t -> node:int -> now:(unit -> float) -> Block.t -> unit

(** [set_on_quorum_commit t f] installs an observer invoked exactly once per
    block, at the moment the [(2f+1)]-th node commits it — the endpoint of
    the paper's latency metric.  On both substrates it is
    [Bft_runtime.Harness.observe_quorum_commits]'s: liveness, the trace's
    quorum-commit events and the client-traffic replay. *)
val set_on_quorum_commit : t -> (node:int -> time:float -> Block.t -> unit) -> unit

(** Per-block record: when it was created (first proposed) and when the
    [(2f+1)]-th node committed it ([None] if that never happened). *)
type record = {
  block : Block.t;
  created_ms : float;
  quorum_commit_ms : float option;
}

type result = {
  committed_blocks : int;  (** Blocks committed by [>= 2f + 1] nodes. *)
  latencies_ms : float list;
      (** One sample per such block whose proposal was seen; a block
          committed without one (a socket run whose proposer crashed in
          process mode) counts, with its payload bytes, but adds no
          sample. *)
  avg_latency_ms : float;  (** 0 when nothing committed. *)
  payload_bytes_committed : float;
  transfer_rate_bps : float;
  blocks_per_sec : float;
  per_node_committed : int array;
  proposed_blocks : int;
  records : record list;  (** All proposed blocks, by creation time. *)
}

(** [finish t ~duration_ms] computes the aggregates. *)
val finish : t -> duration_ms:float -> result

(** Chain quality: committed blocks per proposer, sorted by node id.  Fair
    rotating-leader protocols spread commits evenly across honest proposers
    (one of the motivations in the paper's introduction). *)
val chain_quality : result -> (int * int) list
