(** Collision-resistant digests for the simulation.

    Real deployments would use SHA-256 or BLAKE3; for a deterministic
    simulation a 64-bit FNV-1a digest over the hashed structure is enough to
    make distinct blocks distinguishable while remaining cheap and
    reproducible.  The wire size accounted for digests is nevertheless that of
    a 32-byte production hash (see {!Bft_types.Wire_size}). *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int

(** [of_fields fields] digests a list of 64-bit field values. *)
val of_fields : int64 list -> t

(** [of_ints6 a b c d e f] equals
    [of_fields (List.map Int64.of_int [ a; b; c; d; e; f ])] (each int
    sign-extended to 64 bits) without building the list or boxing the
    fields: only the result is allocated.  Block hashing's entry point. *)
val of_ints6 : int -> int -> int -> int -> int -> int -> t

(** A running sum (modulo 2{^64}) of digests, for order-independent state
    digests kept up to date as entries arrive.  Adding allocates
    nothing. *)
module Sum : sig
  type digest := t
  type t

  val create : unit -> t

  (** [add3 s a b c] adds [of_fields] of [a], [b] and [c], each
      sign-extended to 64 bits as in {!of_ints6}. *)
  val add3 : t -> int -> int -> int -> unit

  (** [add4 s a b c d]: the same for four fields. *)
  val add4 : t -> int -> int -> int -> int -> unit

  val value : t -> digest
end

(** [of_string s] digests the bytes of [s]. *)
val of_string : string -> t

(** Digest used for "no hash" slots, e.g. the parent of the genesis block. *)
val null : t

val to_hex : t -> string
val pp : Format.formatter -> t -> unit

(** Stable value usable as a hash-table key. *)
val to_int : t -> int

(** The digest's 64-bit value, for folding one digest into another via
    {!of_fields} (how composite state digests are built). *)
val to_int64 : t -> int64

(** Inverse of {!to_int64}; reconstructs a digest received off the wire
    (block-request hashes travel as their raw 64-bit value). *)
val of_int64 : int64 -> t
