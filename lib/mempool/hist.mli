(** Fixed-memory log-bucketed latency histogram.

    400 geometric buckets (7% relative width) from 0.05 ms upward; recording
    a sample touches one bucket, the count, and a float array holding the
    sum and the maximum, so tracking the end-to-end latency of millions of
    client commands through {!add_from} allocates nothing.
    Quantiles report a bucket's upper bound (≤ 7% relative error), capped by
    the exact observed maximum. *)

type t

val create : unit -> t

(** [add_from t times i] records the sample [times.(i)] (negative values
    clamp to zero).  The sample comes in a slot because a float passed
    across a module boundary is boxed. *)
val add_from : t -> float array -> int -> unit

val count : t -> int
val mean : t -> float
val max_value : t -> float

(** [quantile t q] for [q] in [0, 1]; 0 when empty. *)
val quantile : t -> float -> float
