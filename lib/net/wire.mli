(** Byte-level wire primitives and framing for the live-network transport.

    This module defines the *mechanics* of the wire format — primitive
    value encodings, the frame envelope, and typed decode errors.  The
    per-message-type encodings built from these primitives live next to
    the message types themselves ({!Moonshot.Codec},
    {!Jolteon.Jolteon_codec}); the normative specification, with worked
    hex examples, is [docs/WIRE.md].

    Every frame travelling on a socket is

    {v
    frame := length:u32be body
    body  := version:u8 tag:u8 fields
    v}

    where [length] is the byte length of [body] (at least 2, at most
    {!max_frame_len}), [version] is {!version}, and [tag] selects the
    message type.  Decoders are total: any byte string either decodes to
    a value or to an {!error} — never to an exception escaping
    {!decode_body}. *)

(** Current (and only) wire-format version byte. *)
val version : int

(** Upper bound on the body length a decoder accepts (16 MiB).  Encoded
    frames exceeding it raise [Invalid_argument] at encode time; received
    length prefixes exceeding it are rejected with {!Frame_too_large}
    before any allocation. *)
val max_frame_len : int

(** Decode failures.  [Truncated] covers every read past the end of the
    input; [Trailing] reports bytes left over after a complete parse
    (frames must be exact); [Invalid] carries a human-readable reason for
    semantic rejections (bad option marker, oversized list, failed smart
    constructor, ...). *)
type error =
  | Truncated
  | Bad_version of int
  | Bad_tag of int
  | Trailing of int
  | Frame_too_large of int
  | Invalid of string

val error_to_string : error -> string

(** {2 Writer}

    A writer is an append-only byte buffer.  Encoders never fail (other
    than [Invalid_argument] on out-of-domain arguments, which indicates a
    caller bug, not input data). *)

module W : sig
  type t

  (** [create ?size ()] starts empty with room for [size] bytes (default
      128) before the first reallocation. *)
  val create : ?size:int -> unit -> t

  (** One byte; [v] must be in [0, 255]. *)
  val u8 : t -> int -> unit

  (** Fixed 8-byte big-endian two's-complement integer (hashes). *)
  val u64 : t -> int64 -> unit

  (** Unsigned LEB128 varint; [v] must be non-negative.  Encoders emit
      the minimal form. *)
  val uvar : t -> int -> unit

  (** Zigzag-mapped LEB128 varint for possibly-negative integers (the
      genesis block's proposer is [-1]).  The zigzag shift needs one
      spare bit: magnitudes of [2^61] and above raise
      [Invalid_argument]. *)
  val svar : t -> int -> unit

  val bool : t -> bool -> unit

  (** Length-prefixed byte string: [uvar] length then the raw bytes. *)
  val bytes : t -> string -> unit

  (** [option w enc v] writes a presence byte ([0x00]/[0x01]) then, when
      present, the value. *)
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  (** [list w enc vs] writes a [uvar] count then the elements in order. *)
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  (** [padding w n] appends [n] zero bytes (synthetic payload bodies). *)
  val padding : t -> int -> unit

  val contents : t -> string
  val length : t -> int
end

(** {2 Reader}

    A reader consumes a byte string left to right.  All read functions
    raise the internal exception wrapped by {!decode_body} /
    {!run_decoder}; user code written against readers should be run
    through one of those two entry points. *)

module R : sig
  type t

  val of_string : string -> t

  (** Abort the current decode with [Invalid reason]. *)
  val fail : string -> 'a

  val u8 : t -> int
  val u64 : t -> int64

  (** Unsigned LEB128; rejects encodings over 10 bytes or overflowing
      [int]. *)
  val uvar : t -> int

  val svar : t -> int

  (** Rejects any byte other than [0x00]/[0x01]. *)
  val bool : t -> bool

  val bytes : t -> string

  val option : t -> (t -> 'a) -> 'a option

  (** Rejects counts above [65536] (frames never carry more elements). *)
  val list : t -> (t -> 'a) -> 'a list

  (** [padding r n] skips [n] bytes without inspecting them. *)
  val padding : t -> int -> unit

  (** Bytes not yet consumed. *)
  val remaining : t -> int

  (** Raises unless the input is fully consumed. *)
  val expect_end : t -> unit
end

(** {2 Framing} *)

(** [encode_body ?payload_bytes ~tag enc] builds a frame body: version
    byte, [tag], then whatever [enc] writes.  [payload_bytes] (default 0)
    is the padding the message carries ({!Bft_types.Protocol_intf.S.payload_bytes});
    the writer is sized for it plus a fixed header allowance, so encoding a
    padded proposal does not regrow the buffer. *)
val encode_body : ?payload_bytes:int -> tag:int -> (W.t -> unit) -> string

(** [frame body] prepends the [u32be] length prefix, yielding the exact
    byte sequence sent on a socket.  Raises [Invalid_argument] if [body]
    exceeds {!max_frame_len}. *)
val frame : string -> string

(** Abort the current decode with [Bad_tag t] — for the tag-dispatch
    [match] of a message decoder's catch-all arm. *)
val bad_tag : int -> 'a

(** [decode_body body f] checks the version byte, reads the tag, runs
    [f tag reader], and requires the input to be fully consumed.  All
    reader exceptions are converted to [Error]. *)
val decode_body : string -> (int -> R.t -> 'a) -> ('a, error) result

(** [run_decoder f] runs a reader action outside the frame envelope
    (WAL snapshots, tests), converting exceptions to [Error] without
    checking version/tag or full consumption. *)
val run_decoder : (unit -> 'a) -> ('a, error) result

(** {2 Blocking socket helpers}

    Frame-at-a-time IO on file descriptors, used by the TCP backend.
    Both loop over partial reads/writes. *)

(** [write_all fd s] writes the whole string; raises [Unix.Unix_error]
    on failure. *)
val write_all : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one length prefix and body.  [Ok body] on
    success, [Error `Closed] on EOF at a frame boundary, [Error
    (`Frame_error e)] on a bad length prefix or mid-frame EOF.  Raises
    [Unix.Unix_error] on socket errors. *)
val read_frame :
  Unix.file_descr -> (string, [ `Closed | `Frame_error of error ]) result
