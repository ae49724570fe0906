(** The one place that turns a transport into a hosted protocol node.

    Both substrates run the same {!Bft_types.Protocol_intf.S} node under
    the same policies, and those policies live here: the
    {!Bft_types.Env.t} record and its payload policy, trace emission
    stamped with the transport's clock, the logical fault step after each
    event, and the incarnation lifecycle (WAL, [P.create], install,
    [P.start]).  The simulator's transport is {!engine_io}, shared by
    [Bft_runtime.Harness] and [Bft_mc.Checker]; {!Executor} builds the
    socket one over a frame sink, a self-queue and its own timer heap.
    Event loops stay substrate code. *)

open Bft_types

type 'msg transport = {
  now : unit -> float;  (** Milliseconds on the substrate's clock. *)
  send : int -> 'msg -> unit;
  multicast : 'msg -> unit;
  set_timer : float -> (unit -> unit) -> unit -> unit;
}

(** Node [id]'s transport on a simulator engine; its timers are owned by
    [id], so a crash quenches them. *)
val engine_io : 'msg Bft_sim.Engine.t -> int -> 'msg transport

(** What a fault step asks of the substrate, which acts on it itself:
    crash this node now, and recover these nodes in order. *)
type verdict = { crash : bool; recover : int list }

(** The view-anchored fault step of one node incarnation, fed the node's
    view after each event.  The first incarnation crashes at the first
    step whose view reaches its {!Bft_faults.Logical.crash_anchor}, once;
    later incarnations never crash.  The observer orders every recovery
    whose anchor its view has reached, each once and in
    {!Bft_faults.Logical.recoveries} order; other nodes order none. *)
module Fault_step : sig
  type t

  val create : Bft_faults.Logical.t -> id:int -> incarnation:int -> t
  val step : t -> view:int -> verdict
end

(** Hosting policy shared by every node of a run. *)
type policy = {
  n : int;
  delta : float;
  leader_of : int -> int;
  payload_bytes : int;  (** Parametric payload size, when [ingest = None]. *)
  ingest : Bft_mempool.Ingest.t option;  (** Client batches instead. *)
  trace : Bft_obs.Trace.t option;
  faults : Bft_faults.Logical.t option;  (** [None]: no fault step at all. *)
}

module Make (P : Protocol_intf.S) : sig
  type t

  (** Host node [id] over a transport.  [on_spawn node handler] runs at
      every spawn, for the substrate to install [handler] — [P.handle node]
      itself unless a fault step follows each event.  [incarnation] (default 0) numbers the first
      spawn; [wal] outlives incarnations.  A Byzantine node runs
      [equivocate] or [wrap]s its honest environment.  [on_commit] runs
      after the host's own trace event; [on_verdict] receives non-empty
      fault steps. *)
  val create :
    policy ->
    ?incarnation:int ->
    ?wal:P.wal ->
    ?equivocate:bool ->
    ?wrap:(P.msg Env.t -> P.msg Env.t) ->
    ?on_commit:(Block.t -> unit) ->
    ?on_propose:(Block.t -> unit) ->
    ?on_verdict:(verdict -> unit) ->
    on_spawn:(P.node -> (src:int -> P.msg -> unit) -> unit) ->
    id:int ->
    P.msg transport ->
    t

  (** [None] is a fresh WAL; a corrupt snapshot is logged and replaced by
      a fresh one. *)
  val wal_of_snapshot : id:int -> string option -> P.wal

  (** Create and install this incarnation's node, after tracing [Fault
      Recover] when it is not the first. *)
  val spawn : t -> unit

  (** [P.start] the current node, if one was spawned. *)
  val start : t -> unit

  (** Deliver a message to the current node through the handler {!spawn}
      installed; a no-op before the first spawn. *)
  val handle : t -> src:int -> P.msg -> unit

  (** The fault step on the current node's view, as after an event. *)
  val fault_step : t -> unit

  (** Trace an event of this node, stamped with the transport's clock (a
      no-op untraced) — e.g. [Fault Crash] as the substrate takes it down. *)
  val emit : t -> Bft_obs.Trace.kind -> unit

  (** The next incarnation: {!spawn}, then {!start}. *)
  val recover : t -> unit

  (** The current node's view; 0 before the first spawn. *)
  val view : t -> int

  (** Trace a delivery of [bytes] wire bytes to this node. *)
  val delivered : t -> src:int -> bytes:int -> P.msg -> unit

  (** Trace every delivery of an engine, sized by [P.msg_size]. *)
  val trace_deliveries :
    Bft_obs.Trace.t option -> P.msg Bft_sim.Engine.t -> unit
end
