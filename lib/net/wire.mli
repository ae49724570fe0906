(** Byte-level wire primitives and framing for the live-network transport.

    This module defines the *mechanics* of the wire format — primitive
    value encodings, the frame envelope, and typed decode errors.  The
    per-message-type encodings built from these primitives live next to
    the message types themselves ({!Moonshot.Codec},
    {!Jolteon.Jolteon_codec}); the normative specification, with worked
    hex examples, is [docs/WIRE.md].

    Every frame travelling on a socket is

    {v
    frame := length:u32be payload:uvar body zeros(payload)
    body  := version:u8 tag:u8 fields
    v}

    where [length] counts every byte after the prefix (at least 3, at
    most {!max_frame_len}), [payload] is the length of the trailer of
    zeros that stands for the message's synthetic payload
    ({!Bft_types.Protocol_intf.S.payload_bytes}), [version] is
    {!version}, and [tag] selects the message type.  The trailer is
    written and read in place, never held as a string.  Decoders are
    total: any byte string either decodes to a value or to an {!error} —
    never to an exception escaping {!decode_body}. *)

(** Current (and only) wire-format version byte: [0x02], the frame with
    a payload trailer. *)
val version : int

(** Upper bound on a frame's length field (16 MiB).  Encoded frames
    exceeding it raise [Invalid_argument] at encode time; received
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

    Encoders are written against a writer and run twice: once with a
    writer that only counts bytes, then with one that fills a buffer of
    exactly the counted size ({!W.to_string}, {!encode_body}).  An encoder
    must therefore write the same bytes on both runs.  Encoders never fail
    (other than [Invalid_argument] on out-of-domain arguments, which
    indicates a caller bug, not input data). *)

module W : sig
  type t

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

  (** [to_string enc v] is the bytes [enc] writes for [v], in one
      exact-size string (WAL snapshots, tests).  Raises
      [Invalid_argument] if [enc] writes a different length on its
      filling run. *)
  val to_string : (t -> 'a -> unit) -> 'a -> string
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

  (** Raises unless the input is fully consumed. *)
  val expect_end : t -> unit
end

(** {2 Framing} *)

(** [encode_body ~tag enc v] builds a frame body: version byte, [tag],
    then whatever [enc] writes for [v], in one exact-size string.  Raises
    [Invalid_argument] if the body exceeds {!max_frame_len}.  Passing the
    value apart from a top-level encoder keeps the call closure-free. *)
val encode_body : tag:int -> (W.t -> 'a -> unit) -> 'a -> string

(** [frame_size ~payload n]: the bytes on the wire of a frame with an
    [n]-byte body and a [payload]-byte trailer, its length prefix
    included. *)
val frame_size : payload:int -> int -> int

(** [frame ?payload body] is the exact byte sequence sent on a socket:
    the length prefix, the trailer length [payload] (default 0), [body],
    then [payload] zero bytes.  Raises [Invalid_argument] if [body] is
    shorter than 2 bytes, [payload] is negative, or the frame's length
    exceeds {!max_frame_len}. *)
val frame : ?payload:int -> string -> string

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

(** {2 Socket helpers}

    Frame IO on file descriptors, used by the TCP backend.  {!write_all}
    loops over partial writes, {!read_frame} over partial reads. *)

(** [write_all fd s] writes the whole string; raises [Unix.Unix_error]
    on failure. *)
val write_all : Unix.file_descr -> string -> unit

(** [read_frame fd] reads exactly one frame, blocking until all of it is
    in (pipes).  [Ok (payload, body)] on success, [Error `Closed] on EOF
    at a frame boundary, [Error (`Frame_error e)] on a bad length prefix
    ({!Frame_too_large}), a malformed trailer length ([Invalid]) or
    mid-frame EOF.  Raises [Unix.Unix_error] on socket errors. *)
val read_frame :
  Unix.file_descr ->
  (int * string, [ `Closed | `Frame_error of error ]) result

(** The sending side of a connection: one buffer that it reuses, growing
    it only for more output than it holds. *)
module Frame_writer : sig
  type t

  val create : unit -> t

  (** [add t ~payload body] appends the frame {!frame} makes, its
      trailer's zeros filled straight into the buffer.  Raises
      [Invalid_argument] on a frame {!frame} refuses. *)
  val add : t -> payload:int -> string -> unit

  (** [write t fd] writes to the non-blocking [fd] until nothing is left
      (true) or [fd] would block (false).  Raises [Unix.Unix_error] on
      any other failure. *)
  val write : t -> Unix.file_descr -> bool

  (** Drop everything not yet written. *)
  val clear : t -> unit
end

(** The receiving side of a connection: a buffer that starts at 4 KiB and
    grows only to fit a frame's header and body once its length prefix
    has passed the range check, so a hostile prefix allocates nothing.
    A frame that one [read] brought in whole, trailer included, has its
    body handed on in place, copying nothing.  A trailer never grows the
    buffer: a frame whose trailer is not all in has its body copied out,
    and the trailer is consumed where each [read] puts it, over as many
    reads as it takes. *)
module Frame_reader : sig
  type t

  val create : unit -> t

  (** Set the range check's upper bound, at first {!max_frame_len}. *)
  val set_limit : t -> int -> unit

  (** Current buffer size in bytes. *)
  val capacity : t -> int

  (** [read t fd deliver] makes one [read] on [fd], then calls [deliver
      payload buf off len] for every frame whose last trailer byte is now
      in, in order: a frame is handed on only once all of it has arrived.
      Its body is [buf]'s [len] bytes from [off], which may be the
      reader's own buffer: [deliver] must neither modify them nor keep
      them past its return.
      [`Open]: the connection is still good.  [`Closed]: EOF at a frame
      boundary.  [`Frame_error Truncated]: EOF inside a frame, trailer
      included.  [`Frame_error (Frame_too_large n)]: an out-of-range
      length prefix; [`Frame_error (Invalid _)]: a trailer length over
      four bytes or leaving the body under two.  After either, the
      frames before it were delivered, and the stream cannot be framed
      further.  Raises [Unix.Unix_error] on socket errors; an exception
      from [deliver] propagates, and the reader is not to be used after
      it. *)
  val read :
    t ->
    Unix.file_descr ->
    (int -> Bytes.t -> int -> int -> unit) ->
    [ `Open | `Closed | `Frame_error of error ]
end
