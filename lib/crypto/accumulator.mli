(** Keyed quorum accumulation.

    Collects signer contributions per int key (every user keys by
    [Hash.to_int] of a block hash) and reports exactly once when a key
    first reaches the threshold.  This is the machinery every node uses to
    assemble block certificates and commit-vote quorums from multicast
    messages.

    {b Open tallies.}  A key short of its threshold has an open tally: one
    int array holding its count and signer bits
    ([2 + (n + 31) / 32] words with the header) in a small open-addressed
    table.  The contribution that reaches the threshold closes the tally:
    the key leaves the table, its array goes onto a free stack for the
    next new key, and the key enters the ring.  Once warm (the table, the
    stack and the ring are allocated on first use, not by {!create}), a
    contribution allocates nothing, a new key included.

    {b The ring.}  Each accumulator remembers its {!ring_size} most
    recently completed keys.  Every contribution to a ring key is
    [Already_complete], without a tally: after completion, signers are no
    longer told apart, so a repeated signer is not reported as
    [Duplicate].

    {b Late votes.}  A contribution to a completed key that has left the
    ring opens a fresh tally, which is inert: it can only gather the
    signers that did not count towards the completed quorum, at most
    [n - threshold] of them when each signer contributes once, plus the
    [f] Byzantine signers' replays.  With the quorum threshold [n - f] and
    [n >= 3f + 1], that is at most [2f], below the threshold.  Where a
    repeated delivery could still complete it, the key reports
    [Threshold_reached] a second time; the callers tolerate it: a node
    that already holds the certificate forms none ([Node_core.add_vote]),
    and a repeat commit of a committed block is a no-op.  Nothing here is
    sized by a key's value, so keys from the wire cannot inflate the
    accumulator beyond one tally per distinct open key. *)

type t

(** [create ~n ~threshold] accumulates signers in [0 .. n-1] and fires when a
    key reaches [threshold] distinct signers.  Allocates no table. *)
val create : n:int -> threshold:int -> t

(** Completed keys remembered per accumulator. *)
val ring_size : int

type outcome =
  | Added of int  (** New contribution; payload is the updated count. *)
  | Duplicate  (** This signer already contributed to this open key. *)
  | Threshold_reached
      (** This contribution was the one that completed the quorum: the key
          now has exactly [threshold] signers.  Fires once per key while
          the key stays in the ring (see above). *)
  | Already_complete  (** Any contribution to a key in the ring. *)

(** [add t key ~signer] registers a contribution. *)
val add : t -> int -> signer:int -> outcome

(** Fold over the open tallies, with their signers in ascending order and
    [~complete:false], and over the ring's keys, with [~signers:[]] and
    [~complete:true] (lists built per call: for digests, not for hot
    paths).  A completed key that left the ring is not listed.  Entry
    iteration order is {e unspecified}, so callers building digests must
    combine entries with a commutative operation. *)
val fold :
  (int -> signers:int list -> complete:bool -> 'acc -> 'acc) -> t -> 'acc -> 'acc
