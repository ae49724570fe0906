(** Online safety/liveness monitor for fault-injection runs.

    The harness feeds it every commit, quorum commit, crash and recovery;
    it maintains per-node progress state and two kinds of assertion:

    - {e safety}: at most one block hash ever quorum-commits per height
      (redundant with the metrics collector's commit-log cross-check, but
      cheap and independent);
    - {e liveness}: after the bound [k * delta] has elapsed past a
      disruption-free point [since] (GST, the last heal or the last
      recovery — the harness schedules one {!check} per such point), the
      global quorum-commit height must have grown, and every correct node
      that was up the whole window must have committed something.

    It also measures time-to-catch-up per recovered node (first local
    commit at or above the global quorum height at recovery time) and the
    largest gap between consecutive quorum commits after GST. *)

exception Violation of string

type t

(** [create ~n ~delta ~gst] monitors an [n]-node run against the liveness
    bound [k * delta]. *)
val create : n:int -> delta:float -> gst:float -> t

(** The bound's scale, 20: it accommodates a worst-case view change
    (leader timeout, TC formation, fallback proposal) plus commit depth. *)
val k : float

(** The bound [k * delta], ms. *)
val bound : t -> float

(** Exclude a node from the per-node liveness assertion (Byzantine nodes
    are outside the bound's promise). *)
val set_exempt : t -> int -> unit

val note_commit : t -> node:int -> time:float -> height:int -> unit

(** [hash] is the committed block's hash (as int) — used for the per-height
    uniqueness check.  Raises {!Violation} on a conflicting quorum commit. *)
val note_quorum_commit : t -> time:float -> height:int -> hash:int -> unit

val note_crash : t -> node:int -> time:float -> unit
val note_recover : t -> node:int -> time:float -> unit

(** Assert progress over the window [(since, now]]; the harness calls this
    at [since + bound] when no further disruption falls inside the window.
    Raises {!Violation} when the bound is missed. *)
val check : t -> since:float -> now:float -> unit

type recovery = {
  node : int;
  crashed_at_ms : float;
  recovered_at_ms : float;
  target_height : int;
      (** Global quorum-commit height at the moment of recovery. *)
  caught_up_at_ms : float option;
      (** First local commit reaching [target_height]; [None] = never. *)
}

type report = {
  recoveries : recovery list;  (** In recovery order. *)
  max_quorum_gap_ms : float;
      (** Largest gap between consecutive quorum commits after GST. *)
  checks_passed : int;
  bound_ms : float;
  min_slack_ms : float option;
      (** Smallest margin by which any passed check cleared its window: the
          latest-committing obligated entity's last commit minus the
          window start, minimized over checks.  Near zero = a near-miss —
          the run stayed live by luck; [None] = no check ever ran.  The
          model checker's schedule search uses the analogous commit-free
          walk count as its fitness near-miss signal. *)
}

val report : t -> report
