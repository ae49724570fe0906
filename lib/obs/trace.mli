(** Structured run traces: a typed event sink the experiment harness fills
    during a simulation, with deterministic JSONL export.

    A trace records four families of events on a shared simulated-time
    axis:

    - {e node events} ({!Bft_types.Probe.event}): proposal broadcasts, vote
      sends, local certificate/TC assembly, timeouts, sync requests —
      reported by the protocol nodes through their environment's probe;
    - {e deliveries}: every message handed to a handler, with its coarse
      class, wire size and (when the message has one) view — reported by
      the simulator's delivery tap;
    - {e commits}: each node's commit of a block;
    - {e quorum commits}: the moment the [(2f+1)]-th node commits a block —
      the paper's latency endpoint — reported by the metrics collector.

    The sink is append-only and ordered by emission, which in a
    deterministic simulation means ordered by (time, engine event order):
    two runs with the same configuration and seed produce byte-identical
    {!to_jsonl} output.  A {!disabled} sink records nothing and the harness
    installs no instrumentation for it, so an untraced run's execution is
    exactly the seed benchmark's. *)

open Bft_types

type delivery_class = [ `Proposal | `Vote | `Timeout | `Other ]

(** Fault-injection milestones (reported by the harness's fault
    interpreter): node crashes and recoveries, and the opening/closing
    edges of partition, loss and delay windows. *)
type fault =
  | Crash
  | Recover
  | Partition_start
  | Partition_heal
  | Loss_start
  | Loss_end
  | Delay_start
  | Delay_end

type kind =
  | Node_event of Probe.event
  | Delivered of {
      src : int;
      cls : delivery_class;
      view : int option;
      bytes : int;
    }
  | Committed of { view : int; height : int }
  | Quorum_commit of { view : int; height : int }
  | Fault of fault
  | Link_report of { peer : int; malformed : int; dropped : int }
      (** Live-transport link health, emitted by {!Bft_net.Tcp} at node
          shutdown for every peer with nonzero counters: [malformed] =
          undecodable frame bodies received from [peer]; [dropped] =
          frames to [peer] dropped at send time (fault interposition,
          dead peer, reconnect backoff). *)
  | Client_batch of {
      view : int;
      height : int;
      count : int;
      pending : int;
      p50_ms : float;
      p99_ms : float;
    }
      (** Client-traffic runs: a quorum-committed block drained [count]
          mempool commands, leaving [pending] admitted ones waiting.
          [p50_ms]/[p99_ms] are the cumulative client-perceived end-to-end
          latency percentiles (submit → quorum commit) at this point of the
          run.  Emitted once per quorum-committed block alongside
          {!Quorum_commit}. *)

(** [node] is the acting node: the emitter for node events, the receiver
    for deliveries, the committing node for (quorum) commits, the affected
    node for crash/recover faults ([-1] for network-wide fault windows). *)
type event = { time : float; node : int; kind : kind }

type t

(** A recording sink. *)
val create : unit -> t

(** A sink that records nothing; {!emit} on it is a no-op and
    [Bft_runtime.Harness] skips instrumentation entirely when given one. *)
val disabled : unit -> t

val enabled : t -> bool

(** Append an event (no-op on a disabled sink). *)
val emit : t -> event -> unit

(** Number of events recorded. *)
val length : t -> int

(** Recorded events, oldest first. *)
val events : t -> event list

(** Drop all recorded events (the sink stays enabled). *)
val clear : t -> unit

(** One JSON object, e.g.
    [{"t":20.5,"node":1,"ev":"vote_send","view":1,"height":1,"kind":"opt"}].
    Keys: ["t"] (ms), ["node"], ["ev"] plus event-specific fields. *)
val event_to_json : event -> string

(** The whole trace, one JSON object per line, oldest first.  Deterministic:
    same events, same bytes. *)
val to_jsonl : t -> string

(** Write {!to_jsonl} to a channel. *)
val output : out_channel -> t -> unit

(** One human-readable timeline line, e.g.
    [" 20.0 ms  0 -> 2  proposal v=2 (278B)"]. *)
val pp_event : Format.formatter -> event -> unit
