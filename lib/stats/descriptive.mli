(** Descriptive statistics over float samples. *)

(** All of these raise [Invalid_argument] on an empty list. *)

val mean : float list -> float

val median : float list -> float

(** [percentile p xs] with [p] in [0, 100]; linear interpolation between
    order statistics. *)
val percentile : float -> float list -> float

val min : float list -> float
val max : float list -> float
