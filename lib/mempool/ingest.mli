(** Ingestion coordinator: cuts batches for leaders and replays the
    replicated mempool in commit order.

    The mempool is replicated {e through the chain itself}, in the Narwhal
    lineage: consensus orders batch {e references} — a [(cursor, watermark,
    count)] triple packed into {!Bft_types.Payload.batch} — never contents.
    A leader cutting a block for view [v] contributes exactly one decision,
    the arrival watermark it observed ([count] then follows from the
    parent's cursor and [max_batch]).  Contents are derived by every replica
    identically: replay arrivals [parent watermark, watermark) through the
    deterministic admission state machine ({!Mempool}), then draw [count]
    commands round-robin from lane fronts.  Leaders cannot diverge on
    composition because they never compute it, and a run over sockets
    reconstructs the exact chain the simulator commits from the same seeded
    stream.

    Client-perceived latency (submit → quorum commit of the containing
    block) is recorded during replay into an allocation-free histogram,
    which is how sweeps over millions of clients stay cheap. *)

type t

type lat_summary = {
  samples : int;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

type summary = {
  submitted : int;  (** arrivals ingested (covered by committed watermarks) *)
  admitted : int;  (** entered a lane directly *)
  deferred : int;  (** entered a backlog (lane full) *)
  rejected : int;  (** dropped — lane and backlog full (backpressure) *)
  committed : int;  (** drawn into a quorum-committed block *)
  pending : int;  (** still waiting in lanes *)
  backlogged : int;  (** still waiting in backlogs *)
  shortfall : int;  (** advertised batch slots that found the pool dry *)
  batches : int;  (** batch payloads quorum-committed *)
  watermark : int;  (** arrival-stream position of the replayer *)
  dissemination_bytes : int;
      (** client→validator payload bytes (count × item_size × n), the
          dissemination cost consensus no longer carries in-band *)
  lat : lat_summary;
      (** client-perceived end-to-end latency; meaningful only under the
          [Wall] clock (see [clock]) *)
  clock : Spec.clock;
      (** the spec's submit-time clock.  Under [Views] a submit time is a
          view slot × Δ, which a substrate commit time in ms cannot be set
          against, so [lat] is an artefact and {!pp_summary} prints it as
          unavailable. *)
  per_lane_committed : int array;  (** fairness: commands drawn per lane *)
}

(** Per-commit snapshot for trace events. *)
type batch_report = {
  count : int;
  pool_pending : int;
  cum_p50_ms : float;
  cum_p99_ms : float;
}

(** [create ~spec ~n ~view_ms ()] builds an ingestion site for an [n]-node
    run.  [view_ms] converts view-slot submit times to nominal milliseconds
    under the [Views] clock (pass the view timeout Δ).  [on_command] is
    invoked for every command drawn into a committed batch, in global commit
    order — the hook tests use to check no command is lost or duplicated.
    Raises [Invalid_argument] on an invalid spec. *)
val create :
  ?on_command:(seq:int -> lane:int -> submit_ms:float -> commit_ms:float -> unit) ->
  spec:Spec.t ->
  n:int ->
  view_ms:float ->
  unit ->
  t

val spec : t -> Spec.t

(** [cut t ~view ~parent ~now] is the batch payload for a block proposed at
    [view] extending [parent].  Memoized per view, so a leader's optimistic
    and normal proposals for the same view carry the same block.  [now] is
    the substrate clock (ignored under the [Views] spec clock). *)
val cut :
  t -> view:int -> parent:Bft_types.Block.t -> now:float -> Bft_types.Payload.t

(** [on_quorum_commit t ~payload ~time] must be called for every
    quorum-committed block, in commit order.  For batch payloads it advances
    the replayer to the batch's watermark (running admission control on each
    arrival) and draws the batch's commands, recording their end-to-end
    latency against commit time [time].  Returns the number of commands
    drawn (0 for non-batch payloads). *)
val on_quorum_commit : t -> payload:Bft_types.Payload.t -> time:float -> int

(** Snapshot for a trace event after a commit that drained [count]
    commands; cumulative percentiles come from the histogram. *)
val batch_report : t -> count:int -> batch_report

val summary : t -> summary

(** The counts, then the client-latency line: its percentiles under the
    [Wall] clock, [unavailable] under [Views]. *)
val pp_summary : Format.formatter -> summary -> unit
