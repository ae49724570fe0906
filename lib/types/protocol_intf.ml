(** Interface every consensus protocol implementation exposes to the
    experiment harness.

    A protocol is a message type with a wire-size model plus an event-driven
    node.  {!Bft_net.Node_host} instantiates one node per honest
    participant, builds its {!Env.t} over a substrate's transport (the
    simulator or TCP sockets) and feeds it incoming messages. *)

module type S = sig
  type msg

  (** Wire size in bytes; drives the serialization-delay component of the
      network model. *)
  val msg_size : msg -> int

  (** Receiver-side processing cost in milliseconds (signature verification,
      payload hashing — see {!Cpu_model}), used when the experiment enables
      CPU modelling.  Costs are amortized assuming certificate caching. *)
  val cpu_cost : msg -> float

  (** Coarse message class, used by Byzantine behaviours (e.g. vote
      withholding) and trace statistics. *)
  val classify : msg -> [ `Proposal | `Vote | `Timeout | `Other ]

  (** Payload bytes the message carries in-band (the block body of a
      proposal or sync response; 0 for votes, timeouts and other
      header-only traffic).  Client-traffic runs use it to price
      dissemination separately from ordering: the harness subtracts a
      proposal's payload bytes from its wire size (batch contents travel on
      the client→validator dissemination path, Narwhal-style) while sync
      retransmissions keep theirs.  Always ≤ {!msg_size} of the same
      message. *)
  val payload_bytes : msg -> int

  (** The view (round) a message belongs to, when it has one — used by the
      observability layer to attribute delivered messages and bytes to
      per-view complexity counters.  [None] for view-less traffic such as
      block-synchronizer requests. *)
  val view_of : msg -> int option

  (** {2 Wire codec}

      The live-network transport ({!Bft_net.Tcp}) moves real bytes instead
      of size-annotated in-memory values; every protocol supplies a frame
      codec for its message type (format: [docs/WIRE.md]). *)

  (** Serialize to a wire-frame body (version byte, message tag, fields);
      the transport prepends the length prefix. *)
  val encode_msg : msg -> string

  (** Total inverse of {!encode_msg}: any byte string either decodes or
      yields a human-readable error — it never raises, so a malformed
      frame cannot crash a node. *)
  val decode_msg : string -> (msg, string) result

  type node

  (** Durable per-node write-ahead log, abstract at this level (each
      protocol records its own safety-critical slots).  A WAL outlives node
      incarnations: the harness creates one per participant and threads it
      back into {!create} when restarting a crashed node, which is what
      prevents post-recovery double votes. *)
  type wal

  (** A fresh, empty WAL. *)
  val wal_create : unit -> wal

  (** Snapshot of a WAL's latest record as bytes — the durable form the
      live transport persists to a file after every handler run, so a
      killed validator process can be re-spawned and rebuilt from disk.
      Not a wire frame: the blob is only ever read back by the node that
      wrote it. *)
  val wal_encode : wal -> string

  (** Total inverse of {!wal_encode}; [Error] on a torn or corrupt
      snapshot (the caller falls back to an empty WAL or refuses to
      restart, never crashes). *)
  val wal_decode : string -> (wal, string) result

  (** [create env] builds a node.  [equivocate] (default false) makes the
      node a Byzantine proposer that sends conflicting blocks to different
      halves of the network whenever it leads a view — used by safety tests;
      implementations without an equivocation attack may ignore it.  [wal],
      when given, is recorded to before every binding action and replayed on
      {!start} when non-empty (crash recovery). *)
  val create : ?equivocate:bool -> ?wal:wal -> msg Env.t -> node

  (** Start protocol execution (enter the first view, start timers, propose
      if leader). *)
  val start : node -> unit

  (** Deliver a message from [src]. *)
  val handle : node -> src:int -> msg -> unit

  (** {2 Model-checker support}

      The bounded model checker ({!Bft_mc.Checker}) identifies explored
      world states by digest; every protocol exposes a canonical digest of
      its volatile node state, its durable WAL state and its in-flight
      messages, plus the introspection the checker's invariants need. *)

  (** Canonical content digest: equal iff the node treats the messages
      identically (e.g. certificate signer counts are excluded when the
      protocol deduplicates certificates without them). *)
  val msg_digest : msg -> Hash.t

  val pp_msg : Format.formatter -> msg -> unit

  (** The at-most-once vote slot a message occupies, as [(view, slot)], or
      [None] for messages a correct node may send repeatedly.  Two
      differently-digested messages from one honest sender in the same slot
      constitute a double vote. *)
  val vote_slot : msg -> (int * int) option

  (** Canonical digest of the node's volatile state (the WAL is digested
      separately via {!wal_hash} — it outlives the node).  Two nodes with
      equal digests behave identically on any future input; wall-clock
      values and pure statistics are excluded. *)
  val state_hash : node -> Hash.t

  (** The view (round) the node is currently in. *)
  val current_view : node -> int

  (** Rank of the node's lock (high certificate); never decreases within
      one incarnation. *)
  val lock_view : node -> int

  (** Canonical digest of a WAL's recovery-relevant content. *)
  val wal_hash : wal -> Hash.t

  (** Whether the node's in-memory safety slots agree with its WAL's latest
      record (the WAL may lag only where recovery tolerates it, e.g.
      Jolteon's high QC).  Trivially true for WAL-less nodes; checked by the
      model checker after every handler run. *)
  val wal_consistent : node -> bool
end
