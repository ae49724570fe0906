(** Generic coverage-guided mutation search.  {!Checker.Make.schedule_search}
    instantiates it over fault schedules; the loop itself only sees opaque
    candidates, a seeded mutator and an evaluator.

    Each round breeds [mutants] candidates from the current population
    (uniform parent choice via the seeded RNG), evaluates them
    sequentially, scores them by novelty (canonical digests nothing else
    reached) plus weighted liveness near-misses, and keeps the [population]
    fittest.  The first counterexample stops the search.  Identical seeds
    and inputs replay identical searches. *)

type outcome = {
  o_digests : int64 list;
  o_near_misses : int;
  o_counterexample : Mc_report.counterexample option;
}

type 'a result = {
  x_rounds : int;  (** mutation rounds completed *)
  x_evals : int;
  x_distinct : int;
  x_best : ('a * float) list;  (** final population, best first *)
  x_counterexample : ('a * Mc_report.counterexample) option;
}

val search :
  seed:int ->
  rounds:int ->
  population:int ->
  mutants:int ->
  init:'a list ->
  mutate:(Bft_sim.Rng.t -> 'a -> 'a) ->
  eval:('a -> outcome) ->
  'a result
