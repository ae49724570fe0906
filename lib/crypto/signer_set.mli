(** A deduplicated set of signer identities, as accumulated while collecting
    votes or timeout messages toward a certificate.

    Backed by a packed int word array: [add]/[mem] are single-word bit
    operations, [count] is a popcount sweep over the words, and
    [iter]/[fold] visit set bits without materializing a list — the
    representation every per-quorum hot path (one [add] per received vote)
    relies on to stay allocation-free. *)

type t

(** [create ~n] for signers drawn from [0 .. n-1]. *)
val create : n:int -> t

(** [add t i] records signer [i]; returns [false] when [i] was already
    present.  The index is validated exactly once.  Raises
    [Invalid_argument] when [i] is out of range. *)
val add : t -> int -> bool

val mem : t -> int -> bool

(** Number of distinct signers recorded, by popcount over the words. *)
val count : t -> int

(** The [n] the set was created with. *)
val capacity : t -> int

(** [iter f t] applies [f] to each member in ascending order, without
    allocating.  This is the certificate-formation path's replacement for
    {!to_list}. *)
val iter : (int -> unit) -> t -> unit

(** [fold f t init] folds over members in ascending order. *)
val fold : (int -> 'acc -> 'acc) -> t -> 'acc -> 'acc

(** Members in ascending order as a fresh list.  Reporting/debug only — hot
    paths use {!count}/{!iter}/{!fold}. *)
val to_list : t -> int list

val copy : t -> t
