(** Keyed quorum accumulation.

    Collects signer contributions per key (e.g. per [(view, vote-kind,
    block-hash)]) and reports exactly once when a key first reaches the
    threshold.  This is the machinery every node uses to assemble block
    certificates, timeout certificates and commit-vote quorums from
    multicast messages.  Each key costs one int array (its count and
    signer bits) and its table cell; a contribution allocates nothing. *)

type 'k t

(** [create ~n ~threshold] accumulates signers in [0 .. n-1] and fires when a
    key reaches [threshold] distinct signers. *)
val create : n:int -> threshold:int -> 'k t

type outcome =
  | Added of int  (** New contribution; payload is the updated count. *)
  | Duplicate  (** This signer already contributed to this key. *)
  | Threshold_reached
      (** This contribution was the one that completed the quorum: the key
          now has exactly [threshold] signers.  Fires at most once per
          key. *)
  | Already_complete  (** Contribution past an already reached quorum. *)

(** [add t key ~signer] registers a contribution. *)
val add : 'k t -> 'k -> signer:int -> outcome

(** Fold over every key with at least one contribution.  [signers] lists
    every signer recorded for the key, those past a reached threshold
    included, in ascending order (built per call: for digests, not for hot
    paths).  Entry iteration order is {e unspecified} (hashtable order), so
    callers building digests must combine entries with a commutative
    operation. *)
val fold :
  ('k -> signers:int list -> complete:bool -> 'acc -> 'acc) -> 'k t -> 'acc -> 'acc
