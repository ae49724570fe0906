(** Wire codecs for the Moonshot message family and the shared consensus
    data types (blocks, certificates, timeout certificates).

    The encodings are specified normatively in [docs/WIRE.md]; this module
    implements them on top of {!Bft_net.Wire}'s primitives.  Three
    properties the transport relies on:

    - {e round-trip}: [decode (encode m) = Ok m] for every message;
    - {e totality}: [decode] never raises — malformed input yields an
      [Error], so a garbage frame cannot crash a node;
    - {e exactness}: a message body is consumed in full; trailing bytes
      are rejected, and any strict prefix of a valid body is rejected as
      truncated.

    Block hashes are never transmitted: {!Bft_types.Block.of_wire}
    recomputes them from the header fields on decode.  Signatures are
    abstract in this reproduction (see {!Bft_types.Wire_size}), so
    certificates carry their signer {e count} rather than signature
    bytes.  Proposal-carried payloads are synthetic, and bodies carry only
    their [size_bytes]: the transport sends that many zeros as the frame's
    trailer ({!Bft_net.Wire}), so socket-level byte counts reflect the
    configured payload size while no encoder or decoder touches them. *)

open Bft_types

(** {2 Shared data-type codecs}

    Reader functions raise {!Bft_net.Wire}'s internal decode exception
    and must run under {!Bft_net.Wire.decode_body} /
    {!Bft_net.Wire.run_decoder}; they are exported for the Jolteon codec
    and for tests. *)

(** Block header — what every message that names a block carries; a
    proposal's or sync response's payload bytes travel as the frame's
    trailer. *)
val write_block : Bft_net.Wire.W.t -> Block.t -> unit

val read_block : Bft_net.Wire.R.t -> Block.t
val write_cert : Bft_net.Wire.W.t -> Cert.t -> unit
val read_cert : Bft_net.Wire.R.t -> Cert.t
val write_tc : Bft_net.Wire.W.t -> Tc.t -> unit
val read_tc : Bft_net.Wire.R.t -> Tc.t

(** {2 Message codec} *)

(** Wire tag of a message ([0x01]-[0x0b]; see [docs/WIRE.md]). *)
val tag : Message.t -> int

(** Frame body (version, tag, fields) for a message, in one exact-size
    string; the sender adds the length prefix and the payload trailer
    ({!Bft_net.Wire.Frame_writer}). *)
val encode : Message.t -> string

(** Total inverse of {!encode} with structured errors. *)
val decode : string -> (Message.t, Bft_net.Wire.error) result

(** {!encode} / {!decode} under the names and error type
    {!Bft_types.Protocol_intf.S} requires. *)
val encode_msg : Message.t -> string

val decode_msg : string -> (Message.t, string) result

(** {2 WAL snapshots}

    Byte codec for {!Wal.t} latest-record snapshots, backing the durable
    file-based WALs the live transport's crash-recovery uses
    ({!Bft_net.Tcp}).  Not a wire frame (no version/tag envelope): the
    blob is read back only by the node that wrote it.  All five protocol
    variants share {!Wal.t}, so this codec serves every
    [Protocol_intf.S.wal_encode]/[wal_decode]. *)

(** Snapshot bytes, cached per record ({!Wal.snapshot}): on a log
    unchanged since the last call it returns the physically same string
    and allocates nothing, which is how the TCP transport detects that a
    persist has nothing new to write. *)
val encode_wal : Wal.t -> string

(** Total inverse of {!encode_wal}: a fresh WAL holding the decoded
    latest record (empty when the snapshot was of an empty log). *)
val decode_wal : string -> (Wal.t, string) result
