(** Experiment configuration. *)

type latency_spec =
  | Wan  (** The paper's five-region AWS WAN (Table II). *)
  | Uniform of { base : float; jitter : float }  (** For tests/ablations. *)

type t = {
  protocol : Protocol_kind.t;
  n : int;  (** Network size. *)
  f_actual : int;  (** Number of actual (silent Byzantine) failures, f'. *)
  schedule : Bft_workload.Schedules.t;
  payload_bytes : int;  (** Block payload size p. *)
  duration_ms : float;  (** Simulated run length. *)
  delta_ms : float;  (** Delta the protocols are configured with. *)
  gst_ms : float;  (** Global stabilization time (0 = synchronous run). *)
  pre_gst_extra_ms : float;  (** Adversarial extra delay before GST. *)
  latency : latency_spec;
  bandwidth_bps : float option;
  model_cpu : bool;
      (** When true, receiver-side processing (signature verification,
          payload hashing — {!Bft_types.Cpu_model}) is charged on a per-node
          serial CPU queue.  This is what makes performance degrade with
          network size, as on the paper's m5.large instances. *)
  duplicate_prob : float;
      (** Network-level duplication probability (robustness testing). *)
  seed : int;
  byzantine : (int * Byzantine.t) list;
      (** Per-node Byzantine behaviour assignments (see {!Byzantine}); must
          not overlap the silent set implied by [f_actual]. *)
  faults : Bft_faults.Fault_schedule.t;
      (** Timed fault events (crash/recover/partition/loss/delay) the
          harness interprets against the simulator.  Validated to stay
          inside the [f] budget jointly with the Byzantine sets; the empty
          schedule (default) leaves the run byte-identical to one without
          fault machinery. *)
  logical_faults : bool;
      (** Interpret [faults] on the view clock ({!Bft_faults.Logical}):
          event times are view numbers, crashes trigger when the victim
          reaches its anchor view, recoveries when node 0 (the observer)
          does, and partitions gate each send on the sender's view at
          send time.  The same interpretation the live transport applies
          under [fault_clock = Views], which is what makes chaos chains
          comparable across substrates.  The harness raises
          [Invalid_argument] if the schedule is not a valid logical
          schedule ({!Bft_faults.Logical.of_schedule}). *)
  clients : Bft_mempool.Spec.t option;
      (** Client-traffic ingestion ({!Bft_mempool}).  When set, leaders cut
          blocks from the replicated mempool (batch references over a seeded
          arrival stream) instead of synthesizing [payload_bytes]-sized
          parametric payloads, batch dissemination is priced off the
          ordering path (proposal wire sizes shed their payload bytes, the
          ingest summary carries the dissemination bytes instead), and the
          run reports client-perceived end-to-end latency.  [None]
          (default) keeps the paper's parametric payloads. *)
}

(** The paper's WAN setting: [Wan] latencies, 10 Gbit/s egress,
    [delta_ms = 500], no failures, round-robin leaders, 60 s runs. *)
val default : Protocol_kind.t -> n:int -> t

(** Smaller/faster settings for unit and property tests: uniform latency,
    infinite bandwidth. *)
val local : Protocol_kind.t -> n:int -> t

(** Raises [Invalid_argument] when inconsistent (f' too large, Byzantine
    nodes out of range or overlapping the silent set, bad sizes, fault
    schedule outside the joint crashed+Byzantine budget of f). *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit
