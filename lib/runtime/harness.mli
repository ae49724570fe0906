(** The experiment harness: builds a simulated network from a {!Config.t},
    runs the configured protocol on it and returns the paper's metrics.
    Nodes are hosted through {!Bft_net.Node_host} over the engine's
    transport — the host the TCP cluster and the model checker use too —
    so this module keeps only the event loop, the network and fault
    models, and the metrics.

    Silent Byzantine nodes are modelled by not instantiating a node at all
    (their messages are never sent, their handlers drop everything), which is
    the worst crash-like behaviour a silent adversary can exhibit and matches
    the failure experiments of Section VI-B.  Equivocating Byzantine
    proposers (safety tests) run the protocol's [equivocate] behaviour.

    Every run doubles as a safety audit: a conflicting commit anywhere
    raises [Bft_chain.Commit_log.Safety_violation]. *)

(** Log source ["moonshot.harness"]: run configs at debug, per-run
    summaries at info.  Enable with [Logs.set_level (Some Logs.Info)] and a
    reporter (e.g. [Logs.format_reporter ()]). *)
val log_src : Logs.src

(** Present on fault-schedule runs (see {!Config.t.faults}): the online
    {!Bft_obs.Liveness} monitor's findings plus the message traffic counted
    during the healing windows ([heal, heal + k * Delta]).  The monitor
    raises {!Bft_obs.Liveness.Violation} during the run if safety or the
    liveness bound is breached, so a returned summary means every check
    passed. *)
type fault_summary = {
  liveness : Bft_obs.Liveness.report;
  messages_during_heal : int;
}

type run_result = {
  metrics : Metrics.result;
  messages_sent : int;
  bytes_sent : int;
  events_processed : int;
  peak_pending : int;
      (** The most entries the engine's event heap held at once
          ({!Bft_sim.Engine.stats}). *)
  config : Config.t;
  fault_summary : fault_summary option;
      (** [Some _] iff the config carried a non-empty fault schedule. *)
  client_summary : Bft_mempool.Ingest.summary option;
      (** [Some _] iff the config carried a client-traffic spec
          ({!Config.t.clients}): admission/backpressure counters,
          client-perceived end-to-end latency percentiles, per-lane
          fairness and dissemination bytes. *)
}

(** Run a specific protocol implementation under a configuration.
    [on_commit] observes every per-node commit in order (e.g. to drive a
    replicated application such as {!Bft_app.Ledger}).

    [trace], when given and enabled, receives the run's full structured
    event stream (see {!Bft_obs.Trace}): node probe events, every message
    delivery, per-node commits and quorum commits.  Tracing observes the
    simulation without perturbing it — the engine's RNG streams and event
    order are identical with and without it — so a traced run commits
    exactly the blocks its untraced twin does.  When [trace] is absent or
    disabled no instrumentation is installed at all.

    [on_client_command] (client-traffic runs only) observes every mempool
    command drawn into a quorum-committed block, in global commit order —
    the hook the no-loss/no-duplication property tests use. *)
val run_protocol :
  ?on_commit:(node:int -> Bft_types.Block.t -> unit) ->
  ?trace:Bft_obs.Trace.t ->
  ?on_client_command:
    (seq:int -> lane:int -> submit_ms:float -> commit_ms:float -> unit) ->
  (module Bft_types.Protocol_intf.S with type msg = 'msg) ->
  Config.t ->
  run_result

(** Dispatch on [config.protocol]. *)
val run :
  ?on_commit:(node:int -> Bft_types.Block.t -> unit) ->
  ?trace:Bft_obs.Trace.t ->
  ?on_client_command:
    (seq:int -> lane:int -> submit_ms:float -> commit_ms:float -> unit) ->
  Config.t ->
  run_result

(** [run_seeds config seeds] — repeat a run over several seeds (the paper
    averages three runs per configuration). *)
val run_seeds : Config.t -> seeds:int list -> run_result list

(** Simulator events processed by every run this process has completed,
    summed across domains (the counter is atomic, so domain-parallel
    sweeps — {!Bft_parallel.Parallel}-driven benches — account correctly).
    Read it before and after a workload to get events/second alongside
    wall-clock.  Test seam: test_properties' whole-run budgets read it. *)
val events_processed_total : unit -> int

(** Heap bytes allocated inside the event loops of every run this process
    has completed (per-domain {!Bft_obs.Alloc.allocated_bytes} deltas,
    exact, summed across domains like {!events_processed_total}).  Dividing
    its delta by the event counter's delta gives bytes allocated per
    event.  Test seam: test_properties' whole-run allocation budgets (the
    only whole-run allocation gate) read it. *)
val bytes_allocated_total : unit -> int

(** Averages across repeated runs. *)
type summary = {
  blocks_committed : float;
  avg_latency_ms : float;
  transfer_rate_bps : float;
  blocks_per_sec : float;
}

val summarize : run_result list -> summary
