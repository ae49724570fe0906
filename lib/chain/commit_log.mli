(** A node's committed chain.

    Committing a block commits its uncommitted ancestors first (the paper's
    indirect commit), so the log is always a chain extending genesis.  The
    log refuses inconsistent commits loudly: a conflicting commit at an
    already-filled height raises {!Safety_violation}, which is exactly the
    condition the SMR safety property forbids — tests rely on this being
    impossible to trigger through any protocol execution. *)

open Bft_types

exception Safety_violation of string

type t

(** [create ~on_commit] — [on_commit] fires once per block in chain order. *)
val create : ?on_commit:(Block.t -> unit) -> unit -> t

(** [commit t store b] commits [b] and any uncommitted ancestors found in
    [store], walking parent links only down to the committed prefix.  The
    newly committed blocks reach [on_commit] in chain order; read the log
    ({!length}, {!last}, {!to_list}) for them.  A block already committed
    is a no-op.  Raises [Safety_violation] on a conflicting commit and
    [Invalid_argument] when an ancestor is missing from [store], in both
    cases before committing anything.  Allocates nothing but the log's
    growth. *)
val commit : t -> Block_store.t -> Block.t -> unit

(** [connects t store b] is [Block_store.chain_to store b <> None] for a
    log that only ever committed through [store]: whether every ancestor of
    [b] is in [store], so that {!commit} can run.  It walks only the
    uncommitted suffix ending at [b], stopping at the first block below the
    committed height; the full walk to genesis runs only when that block
    is a fork (its hash differs from the committed one at its height).  A
    commit therefore costs the new blocks, not the chain height. *)
val connects : t -> Block_store.t -> Block.t -> bool

val is_committed : t -> Hash.t -> bool
val last : t -> Block.t  (** Highest committed block; genesis initially. *)

val length : t -> int  (** Committed blocks, genesis excluded. *)

val to_list : t -> Block.t list  (** Genesis first. *)
