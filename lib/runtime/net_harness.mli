(** Runs the protocol suite over the live-network substrate ({!Bft_net.Tcp})
    and cross-validates it against the simulator.

    {!Harness} drives a protocol through the discrete-event simulator;
    this module drives the {e same} node modules over real localhost TCP
    sockets, dispatching through {!Protocol_kind.impl} exactly like
    {!Harness.run} does.  It also hosts the substrate-equivalence check:
    when every run's chain is a pure function of the protocol and the
    scenario (no wall-clock timeout decides anything), all substrates
    must produce the identical commit sequence, and {!crossval} asserts
    they do. *)

(** The commit quorum [2f + 1] with [f = (n - 1) / 3]:
    {!Metrics.latency_quorum}. *)
val quorum : n:int -> int

(** [config kind ~n ~blocks] — a {!Bft_net.Tcp.config} wired for
    [kind]: threads mode, round-robin leader schedule, the protocol's
    canonical name in the hello frame, [delta_ms] 1000 (no timeouts on
    localhost), ephemeral ports, empty payloads, a 60 s timeout, no trace,
    no faults, no WAL and no clients.  Override fields as usual with
    record update. *)
val config : Protocol_kind.t -> n:int -> blocks:int -> Bft_net.Tcp.config

(** Launch a cluster of the given protocol (see {!Bft_net.Tcp.run}). *)
val run : Protocol_kind.t -> Bft_net.Tcp.config -> Bft_net.Tcp.result

(** What a socket run's records say once replayed
    ({!Bft_net.Tcp.replay}) into one {!Metrics} collector: the simulator's quorum-commit
    observer ({!Harness.observe_quorum_commits}) is installed on it, so
    both substrates time commits, watch liveness, drain client batches and
    trace quorum commits the same way. *)
type accounting = {
  metrics : Metrics.result;
      (** The paper's metrics, with the run's [wall_ms] as its duration.
          In process mode a crashed incarnation's proposal records die
          with it: its blocks count as committed but add no latency
          sample. *)
  liveness : Bft_obs.Liveness.report option;
      (** Under a fault schedule: the liveness audit (see
          {!net_liveness}). *)
  client_summary : Bft_mempool.Ingest.summary option;
      (** With clients: the client-traffic accounting (see
          {!client_stats}). *)
  merged_trace : string list;
      (** For a traced run: one JSONL document, sorted by (time, node), of
          every node's trace events plus the pass's [quorum_commit] and
          [client_batch] events and a [fault] event per fault event: the
          event families a traced simulator run emits.  [[]] untraced. *)
}

(** [account config result] — the accounting pass of a run of [config]:
    liveness with Δ = [config.delta_ms] when it has faults, clients with
    [view_ms = config.delta_ms] when it has a spec, the trace when it is
    traced.  Raises [Bft_chain.Commit_log.Safety_violation] when two
    nodes committed different blocks at one height, and
    {!Bft_obs.Liveness.Violation} as {!net_liveness} does. *)
val account : Bft_net.Tcp.config -> Bft_net.Tcp.result -> accounting

(** Post-run sanity assertions.  The run must have reached its target,
    and no two nodes may commit different blocks at one height (the
    accounting pass's safety check).  Without a crash, every node must
    also have committed at least [target] blocks at consecutive heights
    from 1.  When the result records a crash (a [Crash] fault event, or a
    node with [restarts > 0]) a recovered node's commit log is not dense
    — pre-crash commits die with the incarnation in process mode, catch-up
    re-commits heights — so then only each node's top committed height
    must reach [target].  Returns a human-readable reason on failure. *)
val check : Bft_net.Tcp.result -> target:int -> (unit, string) result

(** The liveness audit of the accounting pass: fault events, per-node
    commits and quorum commits feed a {!Bft_obs.Liveness} monitor in
    replay order, with the monitor's GST set to the last disruption.  If the run
    lasted past [gst + bound], enforces one {!Bft_obs.Liveness.check}
    over that window (raising [Violation] when commits stalled).  The
    returned {!Bft_obs.Liveness.report}'s [max_quorum_gap_ms] is the
    bounded commit-gap acceptance metric; [recoveries] carries per-crash
    time-to-catch-up. *)
val net_liveness :
  Bft_net.Tcp.result -> delta:float -> Bft_obs.Liveness.report

(** The client-traffic accounting of the accounting pass, for a run whose
    config carried [clients = Some spec]: an ingestion site rebuilt from
    the spec drains each block's commands at its quorum commit, as in the
    simulator (the committed blocks carry their packed batch
    references).  The returned summary is the socket-side counterpart of
    {!Harness.run_result.client_summary}: admission and backpressure
    counters, client-perceived end-to-end latency percentiles, per-lane
    fairness and dissemination bytes.  [view_ms] converts view-slot
    submit times to milliseconds under the [Views] ingest clock — pass
    the run's [delta_ms]. *)
val client_stats :
  Bft_net.Tcp.result ->
  spec:Bft_mempool.Spec.t ->
  view_ms:float ->
  Bft_mempool.Ingest.summary

(** One commit as compared across substrates. *)
type commit_id = { height : int; view : int; hash : int64 }

(** What a cross-validation run replays on every substrate.  Each
    variant carries only what applies to it. *)
type scenario =
  | Fault_free of { payload_bytes : int }
      (** The happy path with a parametric payload: no timeout ever
          fires, so the chain is a pure function of the protocol. *)
  | Chaos of { seed : int }
      (** A random view-anchored fault schedule
          ({!Bft_faults.Logical.random}: one crash/recover cycle plus one
          partition window) drawn from [seed], run by the simulator under
          [logical_faults] and by the sockets under [fault_clock = Views]
          (Δ = 500 ms, 20 ms link delay, [fault_seed = seed]). *)
  | Clients of Bft_mempool.Spec.t
      (** The same seeded client stream through the mempool on every
          substrate.  The spec must use the [Views] ingest clock: under it
          a leader's batch cut is a pure function of the view number and
          the parent's cursor, so chain agreement means the substrates
          replicated the same mempool contents command for command. *)

(** The fixed client spec of the cross-validation runs: 100k clients,
    32 commands per view, [Views] ingest clock. *)
val views_clients : Bft_mempool.Spec.t

type substrate = Sim | Net of Bft_net.Tcp.mode

(** ["sim"], ["threads"] or ["procs"]. *)
val substrate_name : substrate -> string

(** One substrate's run. *)
type leg = {
  substrate : substrate;
  chain : commit_id list;  (** Node 0's first [blocks] commits. *)
  liveness : Bft_obs.Liveness.report option;
      (** {!net_liveness} of a socket leg under a fault schedule. *)
  client_summary : Bft_mempool.Ingest.summary option;
      (** Under {!Clients}: the simulator's own summary, or
          {!client_stats} of a socket leg's commits at heights up to the
          compared prefix (so it does not depend on how far the cluster
          overshot its target). *)
}

type crossval = {
  schedule : Bft_faults.Fault_schedule.t;
      (** The drawn logical schedule (times are view numbers); empty
          unless {!Chaos}. *)
  blocks : int;  (** Compared prefix length. *)
  legs : leg list;
      (** The simulator, then TCP threads mode, then TCP process mode
          (with a real [SIGKILL] and a WAL-file rebuild) exactly when the
          schedule crashes a node. *)
  agree : bool;  (** Every leg's chain is identical. *)
}

(** [crossval ~protocol ~blocks scenario] runs the scenario on every leg
    ([n] defaults to 4, round-robin leaders) and compares node 0's first
    commits as [(height, view, hash)] triples.  The compared prefix is
    [blocks], or under {!Chaos} [max blocks (last_anchor + 8)] so the
    recovered node's catch-up and the healed partition both sit inside
    it.  Every socket leg must also pass {!check}.  Raises
    [Invalid_argument] on a [Wall]-clock client spec and [Failure] when a
    leg fails {!check} or commits fewer than the prefix. *)
val crossval :
  ?n:int -> protocol:Protocol_kind.t -> blocks:int -> scenario -> crossval
