(** The validator set and its quorum arithmetic.

    The system runs [n] nodes of which up to [f < n/3] may be Byzantine.  A
    quorum is [n - f] nodes, which equals the paper's [2f + 1] when
    [n = 3f + 1] (Section II) and always satisfies the quorum-intersection
    property (any two quorums share at least [f + 1] nodes). *)

type t = private { n : int; f : int }

(** [make n] for a system of [n >= 1] nodes; [f = (n - 1) / 3].
    Raises [Invalid_argument] if [n < 1]. *)
val make : int -> t

(** Size of a quorum: [n - f]. *)
val quorum : t -> int

(** Size of the weak quorum [f + 1] that guarantees at least one honest
    member (used by Bracha-style timeout amplification). *)
val weak_quorum : t -> int

val pp : Format.formatter -> t -> unit
