(** A deduplicated set of signer identities, as accumulated while collecting
    votes or timeout messages toward a certificate.

    Backed by a packed int word array: [add] is a single-word bit
    operation and [count] a popcount sweep over the words — the
    representation every per-quorum hot path (one [add] per received vote)
    relies on to stay allocation-free. *)

type t

(** [create ~n] for signers drawn from [0 .. n-1]. *)
val create : n:int -> t

(** [add t i] records signer [i]; returns [false] when [i] was already
    present.  The index is validated exactly once.  Raises
    [Invalid_argument] when [i] is out of range. *)
val add : t -> int -> bool

(** Number of distinct signers recorded, by popcount over the words. *)
val count : t -> int

(** Members in ascending order as a fresh list.  Reporting only — hot
    paths use {!count}. *)
val to_list : t -> int list
