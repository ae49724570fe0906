(** Keyed quorum accumulation.

    Collects signer contributions per key (e.g. per [(view, vote-kind,
    block-hash)]) and reports exactly once when a key first reaches the
    threshold.  This is the machinery every node uses to assemble block
    certificates, timeout certificates and commit-vote quorums from
    multicast messages.

    A new key costs its table cell and one int array (its count and
    signer bits: [2 + (n + 31) / 32] words with the header); a
    contribution allocates nothing.  Once all [n] signers have
    contributed, the key is retired: its entry points to one read-only
    full-signer array shared by every accumulator of that [n] (every later
    {!add} is [Duplicate], and {!fold} lists [0 .. n-1]), and its own
    array is kept for the next new key, which then costs only its table
    cell.  A retired key's array goes onto a free stack that grows by
    doubling. *)

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
