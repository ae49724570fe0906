(** What one socket validator incarnation does between two [select]
    calls, without sockets, pipes or a wall clock of its own.

    {!Tcp}'s [select] shell accepts connections, hands the frame bodies
    it reads to {!Make.receive} and calls {!Make.step} once per loop
    iteration.  The executor owns the rest: the node's self-message ring
    (a message the node sends itself takes a slot of a ring that doubles
    when full, so once it has room a self-delivery allocates nothing),
    its timers (a {!Bft_sim.Event_queue} heap read against the clock it
    is given), per-peer malformed counts, the commit and proposal
    records, and the output commit.

    {2 Timers}

    Timers follow {!Bft_sim.Timer_row}'s re-arm contract, one row per
    incarnation, as on the engine.  The deadline goes to the heap from a
    float slot, so re-arming an idle callback boxes nothing either.

    {2 Output commit}

    Frames leave only through the {!sink}, which holds them until
    [release].  Every iteration ends the same way: when a handler or timer
    ran, the WAL snapshot goes to [persist] (unless unchanged), and only
    then is [release] called, so no vote reaches the wire before the WAL
    state that binds it reached [persist].  A crash stops every further
    handler and timer at once; the iteration still persists and releases
    what ran before it. *)

open Bft_types

(** The records {!Tcp} re-exports and documents. *)
type commit = { c_block : Block.t; c_height : int; c_time_ms : float }
type proposal = { p_block : Block.t; p_height : int; p_time_ms : float }

type node_result = {
  id : int;
  commits : commit list;
  proposals : proposal list;
  trace_events : Bft_obs.Trace.event list;
  decode_errors : int;
  frames_received : int;
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
  reconnects : int;
  restarts : int;
  malformed_by_peer : int array;
  dropped_by_peer : int array;
}

(** Where frames go: {!Conn_manager} in production, a recorder in tests.
    Both calls are synchronous.  [send] takes a frame's fault verdict and
    holds its body (one encoding per message, shared by every destination
    of a multicast) and its trailer length, the message's
    [P.payload_bytes]; the sink adds the length prefix and the trailer.
    [release] writes every held frame that is due, without blocking. *)
type sink = {
  send : dst:int -> src_view:int -> payload:int -> string -> unit;
  release : unit -> unit;
}

(** The memo slot, in [0, 64), that a frame body takes. *)
val memo_slot : string -> int

module Make (P : Protocol_intf.S) : sig
  type t

  (** Host node [id], rebuilt from the WAL snapshot [wal] if any.
      [now_into slot i] stores the clock, in ms, in [slot.(i)] (a slot,
      not a result, so arming a timer boxes no float); [persist] receives
      each changed WAL snapshot ([None]: nothing is persisted).  [on_target] runs at the first
      commit of height [target_blocks] or more; [on_recover] for every
      recovery the node's fault step orders. *)
  val create :
    Node_host.policy ->
    id:int ->
    incarnation:int ->
    wal:string option ->
    target_blocks:int ->
    now_into:(float array -> int -> unit) ->
    sink ->
    persist:(string -> unit) option ->
    on_target:(unit -> unit) ->
    on_recover:(int -> unit) ->
    t

  (** The first iteration: spawn and start the node, run its fault step,
      drain its self-messages, persist, release. *)
  val start : t -> unit

  (** Decode the body of a frame from peer [src] whose trailer was
      [payload] bytes, [buf]'s [len] bytes from [off] (neither modified
      nor kept), deliver it, then drain the self-messages.  A body
      that does not decode, or whose message's [P.payload_bytes] is not
      [payload], counts as malformed and runs no handler.  Ignored after
      a crash.

      Identical bodies decode once per incarnation, whoever sent them: a
      memo of the last 64 distinct bodies (direct-mapped by
      {!memo_slot}) hands the earlier result back, as a multicast vote
      reaches every node from n - 1 senders byte for byte.  Only a body
      the memo does not hold is copied out of [buf], so a repeated vote
      that {!Wire.Frame_reader} hands on in place allocates nothing here.
      The trailer check, the malformed count against [src] and the traced
      byte count stay per frame. *)
  val receive :
    t -> src:int -> payload:int -> Bytes.t -> int -> int -> unit

  (** Count (and log) a malformed frame from [src]. *)
  val malformed : t -> src:int -> string -> unit

  (** End the iteration: fire the timers due on the clock in deadline
      order (a timer cancelled by an earlier one does not fire), drain the
      self-messages, persist, release. *)
  val step : t -> unit

  (** The [select] timeout: seconds until the earliest timer (a cancelled
      one counts until it is popped), or [-1.] when none is pending. *)
  val wait_s : t -> float

  (** [set_timer t delay f] runs [f] in the first {!step} at least
      [delay] ms from now unless cancelled by the returned function, which
      cancels [f]'s current arming; the node's own timers go here too.
      Re-arming an idle [f] allocates nothing (see Timers above). *)
  val set_timer : t -> float -> (unit -> unit) -> unit -> unit

  (** End the run after this iteration. *)
  val stop : t -> unit

  (** Crash now, traced as [Fault Crash]. *)
  val crash : t -> unit

  (** Neither stopped nor crashed. *)
  val running : t -> bool

  val crashed : t -> bool

  (** The incarnation's result, with [stats]' connection counters, after
      tracing a link report per peer with malformed or dropped frames; and
      after a crash, the final WAL snapshot. *)
  val finish : t -> Conn_manager.stats -> node_result * string option
end
