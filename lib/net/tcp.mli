(** Live-network execution substrate: the same protocol nodes the
    simulator drives, run over real TCP sockets on localhost.

    {!run} launches an [n]-validator cluster in which every node is the
    unmodified event-driven state machine behind
    {!Bft_types.Protocol_intf.S}, hosted by the same {!Node_host} as in
    the simulator — only the transport differs: [send]/[multicast] encode
    messages with the protocol's wire codec and write frames to per-peer
    TCP connections, [set_timer] arms wall-clock timers, and [now] reads
    the wall clock (milliseconds since cluster start).

    One coordinator drives the cluster in two execution modes.  Every
    incarnation of a validator reports to it over a pipe (target reached,
    recovery ordered, crashing, stopped) and takes stop and crash orders
    from a second pipe, which its executor waits on together with its
    sockets.  The mode decides only how an incarnation starts, how its
    result comes back and how it is forced down:

    - {!Threads}: each incarnation is one executor thread (plus a
      {!Conn_manager} sender thread) inside the calling process; results
      come back in memory, and a wedged incarnation has its sockets
      closed from under it;
    - {!Processes}: each incarnation is a forked child process; a stopped
      child sends its result back over its pipe as a
      {!Bft_net.Wire}-encoded blob, and a wedged one gets [SIGTERM], then
      [SIGKILL].

    Topology: full mesh.  Node [i] listens on one TCP port; for sending,
    it opens one connection to each peer and writes frames only on it, so
    every connection carries one direction of one ordered pair and TCP
    gives per-pair FIFO delivery.  The first frame on every connection is
    a [hello] (tag [0x00]) naming the sender id, the cluster size and the
    protocol, letting the receiver attribute (and validate) all later
    frames.  Malformed frame {e bodies} are counted and skipped;
    desynchronizing framing errors (a bad length prefix, a mid-frame EOF)
    close only the offending connection — neither crashes a node.

    {2 Fault injection}

    A {!Bft_faults.Fault_schedule.t} in [config.faults] is compiled to a
    {!Fault_plane.t} and interposed below the codec layer (see
    [docs/WIRE.md]): partitions and loss drop frames at send time, delay
    windows and [link_delay_ms] hold them in the sender queue.  Crashes
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

    Each executor loop iteration waits in [select], handles the frames
    that arrived, fires due timers and drains the node's messages to
    itself.  The frames those handlers send are not written yet: their
    fault verdicts (and the sender's view) are taken at send time, then
    {!Conn_manager} holds them.  At the end of the iteration the node's
    WAL snapshot is written to [node-<i>.wal] (write to a temp file,
    then rename; skipped when the log did not change), and only after
    that write returns are the held frames handed to the sender thread.
    A vote therefore never reaches the wire before the WAL state that
    binds it reaches the file.  A crashing node persists, releases what
    its last iteration held, and flushes the sender queue before it dies.

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
  payload_bytes : int;  (** Per-block payload size (padding on the wire). *)
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
          post-hoc by the coordinator (see {!Net_harness}) from the
          payload references in the commit records. *)
}

(** [default ~n ~target_blocks] — threads mode, ephemeral ports, empty
    payload, [delta] 1 s, round-robin leaders, 60 s timeout, no trace,
    no faults. *)
val default : n:int -> target_blocks:int -> config

(** One block commit as observed by one node, in local commit order. *)
type commit = {
  c_height : int;
  c_view : int;
  c_hash : int64;
  c_time_ms : float;  (** Wall ms since cluster start. *)
  c_payload_id : int;
      (** {!Bft_types.Payload.id} of the committed block — for
          client-traffic runs this is the packed batch reference that
          lets the coordinator replay the mempool stream post-hoc. *)
  c_payload_bytes : int;  (** {!Bft_types.Payload.size_bytes}. *)
}

(** One first-broadcast of a block by its proposer ({!Bft_types.Env.t}'s
    [on_propose]) — the creation timestamp of the latency metric. *)
type proposal = { p_height : int; p_hash : int64; p_time_ms : float }

type node_result = {
  id : int;
  commits : commit list;
      (** Commit order = chain order; a node that crashed and recovered
          contributes every incarnation's commits, so a height committed
          both before the crash and during catch-up appears twice (in
          process mode the crashed incarnation's list dies with the
          process and only the final incarnation's survives). *)
  proposals : proposal list;
  trace_lines : string list;
      (** {!Bft_obs.Trace.event_to_json} lines in emission order;
          [[]] when untraced. *)
  decode_errors : int;  (** Malformed frame bodies skipped (total). *)
  messages_sent : int;  (** Frames written to peers (self excluded). *)
  bytes_sent : int;  (** Wire bytes written, length prefixes included. *)
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

(** [merged_trace result ~quorum] interleaves every node's trace lines
    into one time-sorted JSONL document and synthesizes the
    [quorum_commit] event for each block committed by at least [quorum]
    nodes plus a [fault] event per entry of [result.fault_events] — the
    same event families a traced simulator run emits, so sim and socket
    traces feed the same latency and liveness tooling. *)
val merged_trace : result -> quorum:int -> string list

(** The quorum commit of every block that [quorum] distinct nodes
    committed, as [(node, commit)]: the commit, by [node], whose time is
    the [quorum]-th smallest of the committing nodes' earliest commits of
    that block.  A node that re-committed a block after a recovery counts
    once, at its earliest commit.  Blocks are identified by hash; the
    list is in no particular order. *)
val quorum_commits : result -> quorum:int -> (int * commit) list

(** Per-block quorum-commit latency samples [(height, latency_ms)]:
    time from first proposal to the [quorum]-th node's commit, for
    blocks that reached it.  A node counts at most once per block even
    if it re-committed it after a recovery. *)
val quorum_latencies : result -> quorum:int -> (int * float) list
