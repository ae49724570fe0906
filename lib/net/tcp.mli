(** Live-network execution substrate: the same protocol nodes the
    simulator drives, run over real TCP sockets on localhost.

    {!run} launches an [n]-validator cluster in which every node is the
    unmodified event-driven state machine behind
    {!Bft_types.Protocol_intf.S}, hosted by the same {!Node_host} as in
    the simulator — only the transport differs: [send]/[multicast] encode
    messages with the protocol's wire codec and write frames to per-peer
    TCP connections, [set_timer] arms timers on the node's {!Executor},
    and [now] reads the wall clock (milliseconds since cluster start).

    One coordinator drives the cluster in two execution modes.  Every
    incarnation of a validator reports to it over a pipe (target reached,
    recovery ordered, crashing, stopped) and takes stop and crash orders
    from a second pipe, which its executor waits on together with its
    sockets.  The mode decides only how an incarnation starts, how its
    result comes back and how it is forced down:

    - {!Threads}: each incarnation is one thread inside the calling
      process; results come back in memory, and a wedged incarnation has
      its sockets closed from under it;
    - {!Processes}: each incarnation is a forked child process; a stopped
      child sends its result back over its pipe as a marshalled blob in
      one frame, and a wedged one gets [SIGTERM], then [SIGKILL].

    Topology: full mesh.  Node [i] listens on one TCP port; for sending,
    it opens one connection to each peer and writes frames only on it, so
    every connection carries one direction of one ordered pair and TCP
    gives per-pair FIFO delivery.  The first frame on every connection is
    a [hello] (tag [0x00]) naming the sender id, the cluster size and the
    protocol, letting the receiver attribute (and validate) all later
    frames.  Malformed frame {e bodies} are counted and skipped;
    desynchronizing framing errors (a bad length prefix or trailer
    length, a mid-frame EOF) close only the offending connection —
    neither crashes a node.  A frame whose payload trailer is not its
    message's payload is a malformed body.  An accepted connection reads
    into its own {!Wire.Frame_reader}, hello included (until the hello
    is in, a longer length prefix than any valid hello's is a framing
    error): one [read] per readiness hands every complete frame it
    buffered on, so one loop iteration, and one WAL persist, covers them
    all.  Neither writes nor dials block: a
    peer that stops reading or accepting costs only its own output
    buffer in {!Conn_manager}.

    {2 Fault injection}

    A {!Bft_faults.Fault_schedule.t} in [config.faults] is compiled to a
    {!Fault_plane.t} and interposed below the codec layer (see
    [docs/WIRE.md]): partitions and loss drop frames at send time, delay
    windows and [link_delay_ms] hold them in {!Conn_manager}'s FIFO.  Crashes
    are real and land at a loop-iteration boundary: in {!Threads} mode
    the incarnation tears down its sockets and hands its WAL snapshot to
    the coordinator, which starts the next incarnation from it (same
    port) on the recovery order; in {!Processes} mode the child kills
    itself with [SIGKILL] and the coordinator re-forks it, the new
    incarnation rebuilding from its WAL file.  Either way the node
    catches up via sync.  Under [Wall_ms] the coordinator fires the
    schedule's crashes and recoveries at their instants.  With
    [fault_clock = Views] the schedule is interpreted logically
    ({!Bft_faults.Logical}) — identically to the simulator harness, which
    is what makes chaos chains comparable across substrates.

    {2 Output commit}

    A vote never reaches the wire before the WAL state that binds it
    reaches the file: {!Executor} has {!Conn_manager} hold each loop
    iteration's frames until the node's WAL snapshot is written to
    [node-<i>.wal].  The write goes to a temp file renamed over the old
    one, without fsync: a killed process leaves the old snapshot or the
    new one; host power loss is out of scope.  A crashing node persists,
    releases what its last iteration held, and writes all of it, paced
    frames included, before it dies.

    The cluster runs until every node has committed [target_blocks]
    blocks (each node keeps running after reaching its own target so its
    votes keep serving slower peers) or until [timeout_ms] of wall time,
    whichever is first. *)

open Bft_types

type mode = Threads | Processes

(** How the run ended.  {!Timed_out} does not mean the deadline expired —
    it means cooperative shutdown failed and forcing was needed: some
    incarnation had not reported its stop within two seconds of the stop
    order, so the coordinator closed its sockets out from under it
    (threads) or signalled it down (processes). *)
type outcome = Completed | Timed_out

type config = {
  n : int;  (** Cluster size. *)
  delta_ms : float;  (** Delay bound handed to the nodes (timer base). *)
  payload_bytes : int;  (** Per-block payload size (a frame trailer on the wire). *)
  target_blocks : int;  (** Stop once every node committed this height. *)
  timeout_ms : float;  (** Wall-clock safety net. *)
  mode : mode;
  base_port : int option;
      (** Node [i] listens on [base + i]; [None] = kernel-assigned
          ephemeral ports (safe for parallel test runs). *)
  leader_of : int -> int;  (** Leader schedule, as in the simulator. *)
  trace : bool;  (** Record {!Bft_obs.Trace}-format JSONL events. *)
  protocol_name : string;
      (** Advertised in the [hello] frame; a receiver drops connections
          whose hello names a different protocol or cluster size. *)
  faults : Bft_faults.Fault_schedule.t;
      (** Fault schedule; validated against the [f = (n-1)/3] budget. *)
  fault_clock : Fault_plane.clock;
      (** How schedule times are read: wall milliseconds or views. *)
  fault_seed : int;  (** Seed for link-loss draws. *)
  link_delay_ms : float;
      (** Uniform sender-side pacing per frame; logical-clock runs use it
          to keep view duration well above restart-and-redial time. *)
  wal_dir : string option;
      (** Directory for per-node WAL snapshot files ([node-<i>.wal],
          stale ones removed at cluster start).  Defaults to a temp
          directory when a process-mode schedule crashes anyone. *)
  clients : Bft_mempool.Spec.t option;
      (** Client-traffic mode: leaders cut blocks from a seeded mempool
          batch stream instead of the parametric [payload_bytes] payload.
          Every validator rebuilds the same stream from the spec's seed,
          so proposals need only carry the batch reference (cursor,
          watermark, count — packed into {!Bft_types.Payload.id}).  With
          the spec's [Views] ingest clock the cut is a pure function of
          the view number, making chains bit-identical to a simulator run
          of the same spec.  Client-perceived latency is recovered
          after the run by [Bft_runtime.Net_harness], which replays the
          blocks in the commit records through the same ingest pipeline
          the simulator drains at each quorum commit. *)
}

(** One block commit as observed by one node, in local commit order. *)
type commit = Executor.commit = {
  c_block : Block.t;
  c_height : int;  (** [c_block]'s height. *)
  c_time_ms : float;  (** Wall ms since cluster start. *)
}

(** One first-broadcast of a block by its proposer ({!Bft_types.Env.t}'s
    [on_propose]) — the creation timestamp of the latency metric. *)
type proposal = Executor.proposal = {
  p_block : Block.t;
  p_height : int;  (** [p_block]'s height. *)
  p_time_ms : float;
}

type node_result = Executor.node_result = {
  id : int;
  commits : commit list;
      (** Commit order = chain order; a node that crashed and recovered
          contributes every incarnation's commits, so a height committed
          both before the crash and during catch-up appears twice (in
          process mode the crashed incarnation's list dies with the
          process and only the final incarnation's survives). *)
  proposals : proposal list;
  trace_events : Bft_obs.Trace.event list;
      (** The node's trace events in emission order; [[]] when
          untraced. *)
  decode_errors : int;
      (** Malformed frame bodies skipped (total), mismatched payload
          trailers included. *)
  frames_received : int;
      (** Frame bodies handed to the executor while it ran, malformed
          ones included; self-deliveries are not frames. *)
  messages_sent : int;  (** Frames written to peers (self excluded). *)
  bytes_sent : int;
      (** Wire bytes written: whole frames, length prefixes and payload
          trailers included. *)
  bytes_heal : int;
      (** Bytes written inside post-heal/recovery accounting windows —
          the traffic cost of healing. *)
  reconnects : int;  (** Outbound connections re-established. *)
  restarts : int;  (** Incarnations beyond the first. *)
  malformed_by_peer : int array;  (** Per-peer malformed frame bodies. *)
  dropped_by_peer : int array;
      (** Per-peer frames dropped at send time (fault interposition,
          dead peer, reconnect backoff). *)
}

(** A crash, recovery or fault-window edge as it actually happened on the
    wall clock ([fe_node = -1] for network-wide window edges). *)
type fault_event = {
  fe_time_ms : float;
  fe_node : int;
  fe_kind : Bft_obs.Trace.fault;
}

type result = {
  nodes : node_result array;
  wall_ms : float;  (** Run length, cluster start to shutdown. *)
  reached_target : bool;
      (** Every node's current incarnation committed [target_blocks]
          before the timeout. *)
  outcome : outcome;
  fault_events : fault_event list;  (** Time-sorted. *)
}

(** Run a cluster.  Raises [Invalid_argument] on a config with [n < 1]
    or [n > 256] (a recovery order names its node in one byte), a
    non-positive target, a non-positive timeout, a negative link delay, a fixed port range that does not fit, a
    schedule outside the fault budget, or a [Views]-clock schedule that
    is not a valid logical schedule. *)
val run : (module Protocol_intf.S with type msg = 'm) -> config -> result

(** [replay result metrics] feeds [result]'s records to [metrics] in
    time order, as the simulator feeds it during a run: each proposal to
    {!Bft_obs.Metrics.on_propose}, each commit to [commit] and then
    {!Bft_obs.Metrics.on_commit}, each fault event to [fault].  At equal
    times faults come first, then proposals, then commits; ties within
    one kind keep node order, then each node's record order.  This is
    the one walk over a socket run's records: [Bft_runtime.Net_harness]
    installs the simulator's quorum-commit observer on [metrics] first. *)
val replay :
  ?fault:(fault_event -> unit) ->
  ?commit:(node:int -> commit -> unit) ->
  result ->
  Bft_obs.Metrics.t ->
  unit

(** Per-block quorum-commit latency samples [(height, latency_ms)], by
    height: the {!Bft_obs.Metrics} records of a {!replay} of [result], for
    blocks whose proposal was seen and that reached the commit quorum.
    A node counts at most once per block even if it re-committed it after
    a recovery.  [quorum] must be {!Bft_obs.Metrics.latency_quorum} of
    the cluster size (raises [Invalid_argument] otherwise). *)
val quorum_latencies : result -> quorum:int -> (int * float) list
