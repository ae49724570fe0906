(** Wire messages of the Moonshot protocols.

    One message type serves all three protocols; each protocol simply never
    emits the constructors it does not use (e.g. Simple Moonshot never sends
    [Fb_propose] or [Commit_vote], Pipelined Moonshot never sends [Status]).
    Sender authentication is provided by the simulator's authenticated
    channels, so a [Vote] from source [i] is [i]'s signed vote. *)

open Bft_types

type t =
  | Opt_propose of { block : Block.t }
      (** Optimistic proposal for [block.view]; carries no certificate. *)
  | Propose of { block : Block.t; cert : Cert.t }
      (** Normal proposal: [block] extends the block certified by [cert]. *)
  | Fb_propose of { block : Block.t; cert : Cert.t; tc : Tc.t }
      (** Fallback proposal justified by a timeout certificate
          (Pipelined/Commit Moonshot only). *)
  | Vote of { kind : Vote_kind.t; block : Block.t }
      (** Multicast vote for [block] in view [block.view]. *)
  | Timeout of { view : int; lock : Cert.t option }
      (** View-change request.  [lock] present in Pipelined/Commit. *)
  | Cert_gossip of Cert.t  (** Certificate multicast on view entry. *)
  | Tc_gossip of Tc.t
      (** TC relay: multicast in Simple, unicast-to-leader in Pipelined. *)
  | Status of { view : int; lock : Cert.t }
      (** Simple Moonshot: lock report unicast to the new leader. *)
  | Commit_vote of { view : int; block : Block.t }
      (** Commit Moonshot's explicit pre-commit vote. *)
  | Block_request of { hash : Hash.t }
      (** Synchronizer: ask a peer for a missing block (unicast). *)
  | Blocks_response of { blocks : Block.t list }
      (** Synchronizer: a chain segment, oldest first (unicast). *)

val size : t -> int

(** Receiver-side processing cost (ms): fresh signatures are verified,
    already-known certificates only cost a cache lookup (a node that
    assembled a certificate from multicast votes verified each vote as it
    arrived, so gossiped copies are duplicates).  See {!Bft_types.Cpu_model}.
    [cpu_cost m a i] writes the cost into [a.(i)] and allocates nothing
    ({!Bft_types.Protocol_intf.S.cpu_cost}). *)
val cpu_cost : t -> float array -> int -> unit

(** Coarse class for Byzantine behaviours and trace statistics. *)
val classify : t -> [ `Proposal | `Vote | `Timeout | `Other ]

(** Payload bytes carried in-band (proposal block bodies, sync responses);
    0 for header-only traffic.  See
    {!Bft_types.Protocol_intf.S.payload_bytes}. *)
val payload_bytes : t -> int

(** The view a message belongs to ([None] for synchronizer traffic); used
    for per-view message/byte accounting in traces. *)
val view_of : t -> int option

(** Canonical content digest for model-checker state hashing and in-flight
    message deduplication.  Two messages digest equally iff the protocol
    treats them identically (certificate signer counts excluded, matching
    {!Cert.equal_id}). *)
val digest : t -> Hash.t

(** The uniqueness slot a message occupies, if any: [(view, 0)] for
    optimistic votes, [(view, 1)] for normal/fallback votes (a correct node
    fills each slot at most once per view — {!Safety_rules}).  [None] for
    everything else. *)
val vote_slot : t -> (int * int) option

val pp : Format.formatter -> t -> unit
