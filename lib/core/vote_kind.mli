(** The three vote types of Pipelined/Commit Moonshot (Section IV-A).

    Votes of different kinds may not be aggregated together.  Simple Moonshot
    uses a single untyped vote, represented here as [Normal]. *)

type t = Opt | Normal | Fallback

val equal : t -> t -> bool
val compare : t -> t -> int

(** Stable small integer for use in aggregation keys, in
    [\[0, count)]. *)
val to_tag : t -> int

(** Number of vote kinds. *)
val count : int

val pp : Format.formatter -> t -> unit
