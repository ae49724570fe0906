(** Deterministic splittable random number generator (splitmix64).

    Every source of randomness in a simulation derives from one seed, so a
    run is exactly reproducible from its configuration. *)

type t

(** [create seed] builds a generator whose entire stream is determined by
    [seed]. *)
val create : int -> t

(** An independent stream derived from [t]'s current state.  Used to give
    each node / channel its own generator without correlating draws. *)
val split : t -> t

(** Uniform in [\[0, bound)].  [bound] must be positive.  Equal to
    [float_of_int (bits53 t) /. 2{^53} *. bound]. *)
val float : t -> float -> float

(** The next draw as 53 uniform bits, in [\[0, 2{^53})].  For hot paths in
    other modules: a [float] returned across a module boundary is boxed,
    an [int] is not, so callers scale the bits themselves as {!float}
    does.  Consumes the same draw as {!float}. *)
val bits53 : t -> int

(** Uniform in [\[0, bound)].  [bound] must be positive. *)
val int : t -> int -> int

(** Exponentially distributed with the given mean. *)
val exponential : t -> mean:float -> float
