(** Wire messages of the Jolteon baseline.

    Jolteon [Gelashvili et al., FC 2022] is the linear chained protocol the
    paper evaluates against.  Its steady state is leader-to-all proposals and
    all-to-next-leader votes (the designated vote aggregator that costs it
    reorg resilience); its view change is all-to-all timeouts carrying high
    QCs.  Quorum certificates reuse {!Moonshot.Cert} (rounds are views) and
    timeout certificates reuse {!Moonshot.Tc}. *)

open Bft_types

type t =
  | Propose of { block : Block.t; qc : Moonshot.Cert.t; tc : Moonshot.Tc.t option }
      (** Leader's proposal for round [block.view], justified by [qc]
          (and, after a view change, by the TC of the previous round). *)
  | Vote of { block : Block.t }
      (** Unicast to the leader of the next round, which aggregates. *)
  | Timeout of { round : int; high_qc : Moonshot.Cert.t }
      (** All-to-all view-change request carrying the sender's high QC. *)
  | Block_request of { hash : Hash.t }
      (** Synchronizer: ask a peer for a missing block (unicast). *)
  | Blocks_response of { blocks : Block.t list }
      (** Synchronizer: a chain segment, oldest first (unicast). *)

val size : t -> int

(** Receiver-side processing cost (ms).  Unlike Moonshot, a Jolteon replica
    first meets each QC inside a proposal (it never saw the votes, which
    went to the aggregator), so it verifies the full quorum of signatures
    there; symmetrically, only the aggregator pays for vote verification —
    the per-node imbalance the paper points out for aggregator-based
    protocols.  [cpu_cost m a i] writes the cost into [a.(i)] and allocates
    nothing ({!Bft_types.Protocol_intf.S.cpu_cost}). *)
val cpu_cost : t -> float array -> int -> unit

(** Coarse class for Byzantine behaviours and trace statistics. *)
val classify : t -> [ `Proposal | `Vote | `Timeout | `Other ]

(** Payload bytes carried in-band (proposal block bodies, sync responses);
    0 for header-only traffic.  See
    {!Bft_types.Protocol_intf.S.payload_bytes}. *)
val payload_bytes : t -> int

(** The round a message belongs to ([None] for synchronizer traffic); used
    for per-view message/byte accounting in traces. *)
val view_of : t -> int option

(** Canonical content digest for model-checker state hashing (signer
    counts excluded, as in {!Moonshot.Message.digest}). *)
val digest : t -> Hash.t

(** [(round, 1)] for votes — a correct replica votes at most once per round
    — and [None] for everything else. *)
val vote_slot : t -> (int * int) option

val pp : Format.formatter -> t -> unit
