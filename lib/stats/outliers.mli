(** Outlier detection for experiment aggregates.

    Table III of the paper reports averages "outliers removed": the 200-node
    empty/1.8 kB configurations behaved anomalously (about 3x throughput and
    a quarter of the latency of Jolteon versus roughly 1.5x / half
    elsewhere).  We reproduce the same treatment with a standard IQR fence
    over per-configuration ratios. *)

(** [iqr_filter_on ~value xs] keeps the elements whose [value] lies within
    [Q1 - 1.5 * IQR, Q3 + 1.5 * IQR] (Tukey's fences).  Returns
    [(kept, removed)]. *)
val iqr_filter_on : value:('a -> float) -> 'a list -> 'a list * 'a list
