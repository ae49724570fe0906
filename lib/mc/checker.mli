(** Bounded model checker: exhaustive exploration of message-delivery and
    timer-firing orderings for small worlds, over the exact engine and node
    host ({!Bft_net.Node_host}) the experiments use — plus two sampling
    modes that scale past what exhaustion can reach (swarm walks and
    coverage-guided schedule search).

    The checker installs the engine's capture hook ({!Bft_sim.Engine.set_capture}),
    so every network delivery, timer expiry and scheduled thunk becomes an
    explorable choice instead of a time-ordered event.  Exploration is a
    layered breadth-first search over {e paths} (sequences of indices into
    the canonically-sorted enabled-action list); nodes are mutable, so each
    path is replayed from a fresh world — which is also what makes layers
    embarrassingly parallel ({!Bft_parallel.Parallel.map}) while keeping
    results bit-identical for any [jobs] value.

    Reduction, all sound for state reachability within the stated model:
    - {e state matching}: a canonical digest of node states, WALs, channel
      contents, per-destination arrival order, live timers and the fault
      cursor; revisited digests are pruned (with Godefroid's sleep-set
      subset guard, re-expanding when a revisit carries a strictly smaller
      sleep set);
    - {e sleep sets} with a DPOR-lite independence relation: deliveries to
      different destinations commute; timer firings and fault steps are
      globally dependent (timer enabledness is a function of every inbox);
    - {e validator symmetry} (opt-in, [symmetry = true]): digests are
      canonicalized under the permutation group of interchangeable
      validators ({!Symmetry}) — the nodes that lead no explored view and
      that neither the equivocator list nor the fault schedule names.
      Round-robin leadership pins nodes [0 .. view_bound - 1], so the
      reduction pays off for worlds with at least two spare followers
      ([n >= view_bound + 2]).

    Model assumptions (documented, deliberate):
    - each [(src, dst)] link is a FIFO channel — delivery order is explored
      exhaustively {e across} channels but in-order {e within} one, and an
      identical undelivered copy of a message merges with the one already
      queued (retransmission after delivery re-enqueues, so post-partition
      liveness is still explored);
    - cross-channel overtaking at one destination is bounded by
      [reorder_window] (delay-bounded scheduling);
    - timers fire only at {e quiescence} — when no delivery is enabled
      anywhere — and at most [timer_budget] times per node per fault era.
      This encodes
      maximal progress: every protocol's timeouts are 3–5 [delta] while
      deliveries complete within [delta], so in any timing-feasible run a
      timer cannot beat a deliverable message;
    - messages in flight to a node when it crashes die with the
      incarnation, exactly as in the harness.

    At every reached state the checker verifies: no two nodes commit
    different blocks at one height, no {!Bft_chain.Commit_log.Safety_violation},
    per-incarnation lock monotonicity, WAL/in-memory agreement
    ({!Bft_types.Protocol_intf.S.wal_consistent}), and — at capture time —
    that no honest node ever signs two different votes for one
    [(view, slot)].  Liveness is reported, not asserted: the report carries
    the best commit witness, the number of commit-free leaves, and — new —
    the subset of commit-free deadlocks that are {e certified livelocks}.

    {b Livelock certification.}  A commit-free terminal state (schedule
    fully applied, no partition, everyone live, no enabled action) is
    probed with one budget-free timer round: fire every live pending timer
    once in canonical order, drain deliveries deterministically after each,
    and compare state digests (timer-budget bookkeeping excluded) before
    and after.  An unchanged digest is a fixpoint certificate — every
    future timeout round repeats this one, so no amount of extra budget
    ever makes progress (a genuine liveness bug).  A changed digest means
    the stall was an artifact of the finite [timer_budget]. *)

type config = {
  n : int;
  delta : float;  (** logical; only feeds in-node time heuristics *)
  view_bound : int;
      (** stop expanding once some live node's view exceeds this *)
  max_depth : int;  (** hard path-length cap; hitting it clears [exhausted] *)
  timer_budget : int;
      (** max timer firings per {e node} per {e fault era} (counts reset at
          every fault step): bounds the timeout-interleaving dimension,
          which otherwise dominates the state space (nodes re-arm on every
          expiry, so one node could consume any global budget alone).
          Worlds that need view changes to progress (partitions, crashes)
          need a budget of at least one firing per stalled view. *)
  reorder_window : int;
      (** per-destination overtaking bound (delay-bounded scheduling): a
          message may be delivered only while it is among the [window]
          oldest undelivered arrivals for its destination.  [1] = arrival
          order; larger windows explore more cross-sender reorderings
          (which-quorum-forms choices) at exponential cost. *)
  equivocators : int list;
      (** created with [~equivocate:true] and exempt from double-vote checks *)
  faults : Mc_schedule.step list;
  payload_bytes : int;
  symmetry : bool;
      (** canonicalize state digests under the validator-symmetry group;
          sound (see {!Symmetry}) and worthwhile once [n >= view_bound + 2] *)
}

(** Smart constructor with defaults ([delta]=10, [max_depth]=128,
    [timer_budget]=4, [reorder_window]=1, no faults, no equivocators,
    [symmetry]=false); validates ranges. *)
val config :
  ?delta:float ->
  ?max_depth:int ->
  ?timer_budget:int ->
  ?reorder_window:int ->
  ?equivocators:int list ->
  ?faults:Mc_schedule.step list ->
  ?payload_bytes:int ->
  ?symmetry:bool ->
  n:int ->
  view_bound:int ->
  unit ->
  config

(** Parameters of one coverage-guided schedule search: an {!Explorer} loop
    over {!Bft_faults.Mutate} candidates, each scored by a swarm of
    [s_walks] walks of depth [s_depth] under the candidate's compiled
    schedule.  Deterministic in [s_seed]. *)
type search_config = {
  s_seed : int;
  s_rounds : int;
  s_population : int;
  s_mutants : int;
  s_walks : int;  (** swarm walks per candidate evaluation *)
  s_depth : int;  (** step cap per walk *)
  s_fault_budget : int;  (** [f] for mutation validity *)
}

(** Defaults: 24 rounds, population 8, 12 mutants per round, 32 walks of
    depth 96 per evaluation, fault budget 1. *)
val search_config :
  ?rounds:int ->
  ?population:int ->
  ?mutants:int ->
  ?walks:int ->
  ?depth:int ->
  ?fault_budget:int ->
  seed:int ->
  unit ->
  search_config

module Make (P : Bft_types.Protocol_intf.S) : sig
  (** [check ~jobs cfg] explores the world exhaustively within bounds and
      returns the report.  Deterministic: state counts, violations and
      witness paths are identical for every [jobs] value.  [progress], when
      given, is called once per BFS layer (frontier size, distinct states
      so far) — used by the bench driver for live output.  [stop], polled
      once per layer, aborts the search when it returns [true] (the report
      is flagged non-exhaustive); used for wall-clock budgets without
      linking this library against [unix]. *)
  val check :
    ?progress:(depth:int -> frontier:int -> states:int -> unit) ->
    ?stop:(unit -> bool) ->
    ?jobs:int ->
    config ->
    Mc_report.t

  (** [swarm ~walks ~depth ~seed cfg] samples [walks] maximal
      interleavings with sleep-set-respecting random walks: at each state,
      draw uniformly among enabled actions not in the walk's sleep set
      (evolved exactly as in the exhaustive expansion, so a walk never
      spends steps on an interleaving a sibling branch covers).  Paths are
      indices into the full canonical enabled list, so any walk — in
      particular a violation's or livelock's — replays through {!replay} /
      {!describe}.  Per-walk RNGs are derived by {e hashing} (seed, walk
      index), so walks never alias and reports are byte-identical for any
      [jobs] value; the report's [sw_fingerprint] pins every walk's full
      trajectory for determinism tests.  The estimated coverage is
      [sw_distinct / sw_walks] — distinct canonical state digests per
      walk. *)
  val swarm :
    ?jobs:int ->
    walks:int ->
    depth:int ->
    seed:int ->
    config ->
    Mc_report.swarm

  (** [schedule_search xcfg cfg] runs the coverage-guided mutation loop
      over fault schedules: seeds from {!Bft_faults.Mutate.seeds}, mutants
      bred with {!Bft_faults.Mutate.mutate}, each candidate scored by a
      swarm under its compiled schedule (novel canonical digests + weighted
      commit-free near-misses), stopping at the first counterexample — a
      certified livelock or a safety violation.  [cfg.faults] is ignored
      (each candidate supplies its own schedule); deterministic in
      [xcfg.s_seed] for any [jobs]. *)
  val schedule_search :
    ?jobs:int -> search_config -> config -> Mc_report.search

  (** Replay a path (e.g. a violation's) deterministically, collecting a
      full {!Bft_obs.Trace.t} — deliveries, node probe events, commits,
      fault milestones — for inspection or byte-stable JSONL export. *)
  val replay : config -> int list -> Bft_obs.Trace.t

  (** Human-readable rendering of a path, one numbered action per line. *)
  val describe : config -> int list -> string
end

(** {2 Protocol dispatch} — the five protocols of the experiment suite. *)

val check :
  ?stop:(unit -> bool) ->
  ?jobs:int ->
  Bft_runtime.Protocol_kind.t ->
  config ->
  Mc_report.t

val swarm :
  ?jobs:int ->
  Bft_runtime.Protocol_kind.t ->
  walks:int ->
  depth:int ->
  seed:int ->
  config ->
  Mc_report.swarm

val schedule_search :
  ?jobs:int ->
  Bft_runtime.Protocol_kind.t ->
  search_config ->
  config ->
  Mc_report.search

val replay :
  Bft_runtime.Protocol_kind.t -> config -> int list -> Bft_obs.Trace.t

val describe : Bft_runtime.Protocol_kind.t -> config -> int list -> string
