(** Compiled network fault plane for the live TCP transport.

    Interprets a {!Bft_faults.Fault_schedule.t} below the codec layer:
    verdicts are rendered on already-encoded frames at send time, so the
    wire format (and every pinned vector in [docs/WIRE.md]) is untouched —
    a dropped frame simply never reaches [write], a delayed one waits in
    {!Conn_manager}'s FIFO until its release time.

    Two clocks select how event times are read:

    - {!Wall_ms}: times are wall milliseconds since cluster start — the
      simulator's clock translated 1:1 onto the wall.  Partitions and
      loss/delay windows gate on [now]; crashes and recoveries are driven
      by the cluster coordinator at the scheduled instants.  Faithful
      chaos, but no chain-equality claim (view progression is
      latency-bound, so which views a window hits differs per substrate).
    - {!Views}: times are view numbers ({!Bft_faults.Logical}) — every
      trigger is a function of protocol state, shared exactly with the
      simulator's logical interpreter, which is what makes
      [moonshot crossval --scenario chaos] chains comparable byte for
      byte.

    One plane instance is shared by all of a node's send paths; loss
    draws use a per-sender RNG stream so threads-mode executors do not
    contend. *)

type clock = Wall_ms | Views

type t

(** The inactive plane: passes everything, delays nothing. *)
val none : t

(** Compile a schedule.  [link_delay_ms] is a uniform per-frame pacing
    delay applied even outside fault windows (used by logical-clock runs
    to keep view duration well above restart time); [heal_bound_ms] sizes
    the healing-traffic accounting windows after each heal/recovery.
    Raises [Invalid_argument] when [clock = Views] and the schedule is
    not a valid logical schedule. *)
val compile :
  n:int ->
  clock:clock ->
  seed:int ->
  link_delay_ms:float ->
  heal_bound_ms:float ->
  Bft_faults.Fault_schedule.t ->
  t

val clock : t -> clock

(** Send-time verdict for a frame [src -> dst].  [src_view] is the
    sender's current view at enqueue time (the logical clock);
    [now_ms] the wall clock.  Never drops self-traffic. *)
val verdict :
  t -> src:int -> dst:int -> now_ms:float -> src_view:int -> [ `Pass | `Drop ]

(** Sender-side holding delay for a frame [src] enqueues at [now_ms]: the
    uniform pacing delay plus any wall-clock delay-spike window. *)
val delay_ms : t -> src:int -> now_ms:float -> float

(** Whether [now_ms] falls in a healing-accounting window
    ([heal, heal + heal_bound_ms] after each wall-clock heal point). *)
val in_heal_window : t -> now_ms:float -> bool

(** The view-anchored schedule under the {!Views} clock, for each node's
    {!Node_host.Fault_step}; [None] under {!Wall_ms}. *)
val logical : t -> Bft_faults.Logical.t option

(** {2 Wall-clock timeline} *)

type wall_event =
  | Wall_crash of int
  | Wall_recover of int
  | Wall_edge of Bft_obs.Trace.fault

(** A schedule read on a millisecond clock: its crash/recover instants
    and window edges, stable-sorted by time (events of equal time keep
    schedule order).  The simulator harness schedules its wall-clock
    faults from it, and so do the TCP coordinators under {!Wall_ms}. *)
val wall_events : Bft_faults.Fault_schedule.t -> (float * wall_event) list
