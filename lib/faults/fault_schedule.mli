(** Declarative, deterministic fault schedules.

    A schedule is a list of timed events interpreted by the runtime harness
    against the simulator: node crashes and recoveries, time-windowed
    network partitions, probabilistic link loss and extra-delay spikes.
    Times are absolute simulated milliseconds.

    Schedules are plain data: they can be written as OCaml literals, parsed
    from a compact textual syntax ({!of_string}), or generated at random
    within the threat model ({!random}).  {!validate} enforces that a
    schedule stays inside the [f] fault budget at every instant, counting
    Byzantine nodes against the same budget. *)

type event =
  | Crash of { node : int; at : float }
      (** Node loses all volatile state at [at]; only its WAL survives. *)
  | Recover of { node : int; at : float }
      (** Node restarts from its WAL at [at] and catches up via sync. *)
  | Partition of { groups : int list list; from_ : float; until : float }
      (** Messages between different groups are dropped during
          [[from_, until)].  Nodes not listed in any group form an implicit
          extra group.  Intra-group traffic is unaffected. *)
  | Link_loss of { prob : float; from_ : float; until : float }
      (** Every non-self message is independently lost with probability
          [prob] during [[from_, until)]. *)
  | Delay_spike of { extra_ms : float; from_ : float; until : float }
      (** Every non-self message sent during [[from_, until)] takes
          [extra_ms] longer — a temporary asynchrony burst that may exceed
          [Delta]. *)

type t = event list

(** The fault-free schedule. *)
val empty : t

(** Whether the schedule has no events. *)
val is_empty : t -> bool

(** Events sorted by start time (stable). *)
val sorted : t -> t

(** Times at which a disruption ends: each [Recover], and the [until] of
    each window.  The liveness bound restarts from the latest of these. *)
val heal_times : t -> float list

(** Number of [Crash] events in the schedule. *)
val crash_count : t -> int

(** [validate ~n ~f ~byzantine t] checks the schedule against an [n]-node
    cluster: nodes in range, sane times and probabilities, crash/recover
    alternation per node, no crash of a Byzantine node, and at every
    instant [crashed + |byzantine| <= f].  Raises [Invalid_argument]. *)
val validate : n:int -> f:int -> byzantine:int list -> t -> unit

(** [random ~rng ~n ~f ~duration ~delta] draws a schedule inside the fault
    budget: up to [f] crash/recover cycles plus optional partition, loss and
    delay windows, all disruptions healed by [0.6 * duration] so a liveness
    bound of a dozen [delta] still fits in the run. *)
val random :
  rng:Bft_sim.Rng.t -> n:int -> f:int -> duration:float -> delta:float -> t

(** [checkpoints ~gst ~horizon ~bound t] — the disruption-free points of
    the schedule (GST plus every heal/recovery) at which a liveness bound
    of [bound] ms is enforceable: points whose [[d, d + bound]] window
    runs past [horizon], contains a later disruption-free point, or
    overlaps a disruption window (open partition/loss/delay windows and
    crash→recover spans, unrecovered crashes spanning to infinity) are
    superseded and dropped.  Shared by the simulator harness and the
    net-trace liveness replay so both enforce identical semantics. *)
val checkpoints : gst:float -> horizon:float -> bound:float -> t -> float list

(** The acceptance-demo timeline: crash [leader] at [crash_at], partition
    the survivors into two halves during [[partition_at, heal_at)], recover
    the crashed node at [recover_at]. *)
val demo :
  n:int ->
  leader:int ->
  crash_at:float ->
  partition_at:float ->
  heal_at:float ->
  recover_at:float ->
  t

(** Compact textual syntax, [;]-separated events:

    {v
    crash@500:2            crash node 2 at t=500
    recover@2000:2         recover node 2 at t=2000
    partition@800-1500:0,1/2,3   groups {0,1} and {2,3} split
    loss@500-1500:0.3      30% link loss in the window
    delay@1000-2000:250    +250 ms per message in the window
    v} *)
val to_string : t -> string

(** Parse the {!to_string} syntax; [Error] names the offending clause. *)
val of_string : string -> (t, string) result

(** Pretty-print in the {!to_string} syntax. *)
val pp : Format.formatter -> t -> unit
