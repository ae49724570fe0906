(** Fault schedules as model-checker choice points.

    The experiment harness interprets a {!Bft_faults.Fault_schedule.t} by
    wall-clock time; the model checker has no wall clock — it explores
    orderings.  [compile] turns a timed schedule into an ordered list of
    untimed steps: the checker offers "execute the next fault step" as one
    more enabled action at the initial state and at every quiescent state,
    so the steps interleave with the delivery orderings while respecting
    the schedule's own event order (see {!Checker}'s model notes for why
    onset is not explored mid-flight).

    Probabilistic events ([Link_loss]) and latency shifts ([Delay_spike])
    have no untimed meaning and are rejected. *)

type step =
  | Crash of int
  | Recover of int  (** restart from the WAL, as the harness does *)
  | Partition_on of int list list
      (** cross-group sends are dropped at capture time (the harness drops
          at send time, matching) *)
  | Partition_off

(** [compile ~n sched] linearizes [sched] by event start time (partition
    windows contribute an opening and a closing edge).  Errors on loss /
    delay events, out-of-range nodes and overlapping partitions. *)
val compile :
  n:int -> Bft_faults.Fault_schedule.t -> (step list, string) result
