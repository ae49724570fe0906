(** Model-checking results: violations with their reproducing paths,
    exploration statistics and liveness accounting.  Protocol-agnostic —
    shared by every {!Checker.Make} instantiation and by the swarm and
    schedule-search exploration modes. *)

type violation_kind =
  | Conflicting_commits
      (** two nodes committed different blocks at one height *)
  | Commit_log_exception
      (** a node's own {!Bft_chain.Commit_log} raised [Safety_violation] *)
  | Lock_regression  (** a lock ranked down within one incarnation *)
  | Wal_divergence  (** in-memory safety slots disagree with the WAL *)
  | Double_vote
      (** an honest node signed two distinct votes for one [(view, slot)] *)

type violation = {
  kind : violation_kind;
  detail : string;
  path : int list;
      (** replayable: indices into the canonical enabled-action list at
          each step from the initial state ({!Checker.Make.replay}) *)
}

type stats = {
  states_visited : int;  (** distinct (canonical) state digests *)
  states_matched : int;  (** probes pruned by a revisited digest *)
  states_reexpanded : int;
      (** revisits that carried a strictly smaller sleep set and were
          re-expanded (sound completion of the sleep-set prune) *)
  transitions : int;  (** probes executed; [= visited + matched + reexpanded] *)
  branches : int;
      (** child paths actually enqueued; [transitions = branches + 1] once
          exploration drains (every enqueued child is probed exactly once) *)
  sleep_skips : int;  (** enabled actions skipped by sleep sets *)
  leaves : int;
  max_depth_seen : int;
  exhausted : bool;
      (** false iff some path was truncated by [max_depth] — or the whole
          run by a [stop] deadline — with actions still enabled *)
}

type t = {
  stats : stats;
  violations : violation list;
  max_committed : int;  (** most commits observed in any explored world *)
  commit_witness : int list option;
      (** first path (in BFS order) whose world commits — a liveness
          witness within the view budget *)
  leaves_without_commit : int;  (** leaves whose world never committed *)
  deadlocks : int;
      (** commit-free leaves at which {e no} action was enabled.  Timer
          budget exhaustion can contribute; see [livelocks] for the
          budget-independent subset. *)
  deadlock_witness : int list option;  (** first deadlock path (BFS order) *)
  livelocks : int;
      (** deadlocks certified as genuine: the fault schedule is fully
          applied, no partition is open, every node is live, and granting
          one extra timer round returns the state to itself (a fixpoint —
          rebroadcasting forever cannot make progress).  A nonzero count
          is a real liveness bug, not a bound artifact. *)
  livelock_witness : int list option;
}

(** Fraction of probed states pruned by digest matching:
    [states_matched / transitions]. *)
val digest_prune_ratio : stats -> float

(** Fraction of offered branches skipped by sleep sets:
    [sleep_skips / (branches + sleep_skips)]. *)
val sleep_prune_ratio : stats -> float

val pp : Format.formatter -> t -> unit

(** {2 Swarm mode} *)

type endpoint =
  | Ep_violation  (** walk stopped at its first invariant violation *)
  | Ep_livelock  (** commit-free stuck state with a fixpoint certificate *)
  | Ep_no_action  (** no enabled action (budget exhaustion or normal end) *)
  | Ep_view_bound
  | Ep_depth

type swarm = {
  sw_walks : int;
  sw_steps : int;  (** actions executed across all walks *)
  sw_distinct : int;  (** distinct canonical digests across all walks *)
  sw_endpoints : (endpoint * int) list;  (** all five, fixed order *)
  sw_max_committed : int;
  sw_commitless : int;  (** walks that never committed *)
  sw_max_tail : int;  (** longest commit-free step tail at a walk's end *)
  sw_violations : violation list;  (** first violation per violating walk *)
  sw_livelock_witness : int list option;
  sw_fingerprint : int64;
      (** order-sensitive digest of every walk's (endpoint, path, final
          state): two reports are the same exploration iff fingerprints
          match — the determinism tests compare these across job counts *)
}

(** Estimated coverage: distinct canonical digests per walk. *)
val coverage : swarm -> float

val pp_swarm : Format.formatter -> swarm -> unit

(** {2 Coverage-guided schedule search} *)

type counterexample =
  | Cx_livelock of int list  (** certified commit-free fixpoint; the path *)
  | Cx_violation of violation

type search = {
  se_rounds : int;  (** mutation rounds completed *)
  se_evals : int;  (** schedules evaluated (swarm runs) *)
  se_distinct : int;  (** distinct canonical digests across all evals *)
  se_best : (string * float) list;
      (** final population: (schedule text, fitness), best first *)
  se_counterexample : (string * counterexample) option;
      (** the found bug: fault-schedule text
          ({!Bft_faults.Fault_schedule.of_string} round-trips it) and the
          walk that exhibits it under that schedule *)
}

val pp_search : Format.formatter -> search -> unit
