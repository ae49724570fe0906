(** Block certificates.

    A block certificate [C_v(B_k)] is a quorum of distinct signed votes of a
    single kind for [B_k] in view [v].  Certificates are ranked by view:
    [C_v <= C_v'] iff [v <= v'] (Section II-B).  The certified block header
    travels with the certificate so ranking, extension checks and commits
    never need a separate block fetch. *)

open Bft_types

type t = private {
  kind : Vote_kind.t;
  view : int;
  block : Block.t;
  signers : int;  (** Number of aggregated signatures (for wire size). *)
}

(** [make ~kind ~view ~block ~signers] — raises [Invalid_argument] unless
    [view = block.view] and [signers >= 1]. *)
val make : kind:Vote_kind.t -> view:int -> block:Block.t -> signers:int -> t

(** The well-known certificate for the genesis block (view 0), locked by
    every node at protocol start. *)
val genesis : t

(** Rank comparisons: by view only; the kind never matters for ranking. *)
val rank_geq : t -> t -> bool
val rank_gt : t -> t -> bool

(** Identity: same view, kind and certified block. *)
val equal_id : t -> t -> bool

(** Canonical digest for model-checker state hashing.  Consistent with
    {!equal_id}: the signer count does not participate, so two certificates
    the protocol deduplicates as identical digest identically. *)
val digest : t -> Bft_types.Hash.t

(** [certifies_parent_of t b] is true when [b] directly extends the block
    certified by [t]. *)
val certifies_parent_of : t -> Block.t -> bool

val wire_size : t -> int
val pp : Format.formatter -> t -> unit
