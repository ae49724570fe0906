(** A node's local store of block headers: one table, indexed by hash.

    The store always contains the genesis block.  Blocks arrive out of order
    (a vote can beat the proposal that carries the block), so ancestry
    queries tolerate missing intermediate blocks by reporting [`Unknown]. *)

open Bft_types

type t

val create : unit -> t

(** [insert t b] records [b]; idempotent.  Returns [true] when new. *)
val insert : t -> Block.t -> bool

(** [find t h] is the block with hash [h]; raises [Not_found].  No option:
    walks look up a block per step and must not allocate per step. *)
val find : t -> Hash.t -> Block.t

(** [find_key t k] is the stored block whose hash has [Hash.to_int] equal
    to [k], the key the store is indexed by.  For tables that key blocks
    by that int (the vote accumulator) and need the block back. *)
val find_key : t -> int -> Block.t option
val mem : t -> Hash.t -> bool
val size : t -> int

(** [is_ancestor t ~ancestor ~of_] walks parent links from [of_].  A block is
    an ancestor of itself.  [`Unknown] when a parent link leaves the store
    before reaching [ancestor]'s height. *)
val is_ancestor : t -> ancestor:Block.t -> of_:Block.t -> [ `Yes | `No | `Unknown ]

(** The chain from genesis to [b] inclusive, oldest first.  [None] when an
    ancestor is missing.  O(height of [b]) and allocating a list of that
    length: commits use [Commit_log.connects], which calls this only on a
    fork off the committed prefix.  It is kept for that fallback, for tests
    and for the benchmark's chain probe. *)
val chain_to : t -> Block.t -> Block.t list option

(** Fold over every stored block (genesis included) in {e unspecified}
    order; digest builders must combine per-block terms commutatively. *)
val fold : (Block.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
