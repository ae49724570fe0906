let version = 0x02
let max_frame_len = 16 * 1024 * 1024
let max_list_len = 65536

type error =
  | Truncated
  | Bad_version of int
  | Bad_tag of int
  | Trailing of int
  | Frame_too_large of int
  | Invalid of string

let error_to_string = function
  | Truncated -> "truncated input"
  | Bad_version v -> Printf.sprintf "bad version byte 0x%02x" v
  | Bad_tag t -> Printf.sprintf "unknown message tag 0x%02x" t
  | Trailing n -> Printf.sprintf "%d trailing bytes after message" n
  | Frame_too_large n -> Printf.sprintf "frame length %d exceeds limit" n
  | Invalid reason -> reason

exception Decode of error

(* A writer runs twice over the same encoder: first with an empty [buf],
   where every primitive only advances [pos], then over a buffer of
   exactly the counted size.  Closure-free loops throughout: an encoder
   allocates the writer and its output string and nothing else. *)
module W = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let counting () = { buf = Bytes.empty; pos = 0 }
  let filling t = Bytes.length t.buf > 0

  (* Turn a writer that has counted an encoding into one that fills an
     exact-size buffer from the start. *)
  let to_fill t =
    t.buf <- Bytes.create t.pos;
    t.pos <- 0

  let contents t =
    if t.pos <> Bytes.length t.buf then
      invalid_arg "Wire.W: encoder wrote a different length when filling";
    Bytes.unsafe_to_string t.buf

  let byte t c =
    if filling t then Bytes.set t.buf t.pos c;
    t.pos <- t.pos + 1

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg "Wire.W.u8: out of range";
    byte t (Char.unsafe_chr v)

  let u64 t v =
    if filling t then Bytes.set_int64_be t.buf t.pos v;
    t.pos <- t.pos + 8

  let uvar t v =
    if v < 0 then invalid_arg "Wire.W.uvar: negative";
    let v = ref v in
    while !v >= 0x80 do
      byte t (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
      v := !v lsr 7
    done;
    byte t (Char.unsafe_chr !v)

  (* Zigzag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...  The shift in the
     mapping needs one spare bit, so magnitudes at the very top of the
     int range are refused rather than silently wrapped. *)
  let svar t v =
    if v asr 61 <> 0 && v asr 61 <> -1 then
      invalid_arg "Wire.W.svar: out of range";
    uvar t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))
  let bool t v = u8 t (if v then 1 else 0)

  let bytes t s =
    let n = String.length s in
    uvar t n;
    if filling t then Bytes.blit_string s 0 t.buf t.pos n;
    t.pos <- t.pos + n

  let option t enc = function
    | None -> u8 t 0
    | Some v ->
        u8 t 1;
        enc t v

  let rec items t enc = function
    | [] -> ()
    | v :: vs ->
        enc t v;
        items t enc vs

  let list t enc vs =
    uvar t (List.length vs);
    items t enc vs

  let to_string enc v =
    let t = counting () in
    enc t v;
    to_fill t;
    enc t v;
    contents t
end

module R = struct
  type t = { input : string; mutable pos : int }

  let of_string input = { input; pos = 0 }
  let fail reason = raise (Decode (Invalid reason))

  let need t n =
    if t.pos + n > String.length t.input then raise (Decode Truncated)

  let u8 t =
    need t 1;
    let v = Char.code t.input.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u64 t =
    need t 8;
    let v = String.get_int64_be t.input t.pos in
    t.pos <- t.pos + 8;
    v

  let rec uvar_from t acc shift =
    if shift >= 63 then fail "varint too long"
    else
      let b = u8 t in
      let low = b land 0x7f in
      if shift > 0 && (low lsl shift) lsr shift <> low then
        fail "varint overflow"
      else
        let acc = acc lor (low lsl shift) in
        if b land 0x80 = 0 then acc else uvar_from t acc (shift + 7)

  let uvar t =
    let v = uvar_from t 0 0 in
    if v < 0 then fail "varint overflow" else v

  let svar t =
    let v = uvar t in
    (v lsr 1) lxor (- (v land 1))

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | b -> fail (Printf.sprintf "bad bool byte 0x%02x" b)

  let bytes t =
    let n = uvar t in
    need t n;
    let s = String.sub t.input t.pos n in
    t.pos <- t.pos + n;
    s

  let option t dec = match u8 t with
    | 0 -> None
    | 1 -> Some (dec t)
    | b -> fail (Printf.sprintf "bad option marker 0x%02x" b)

  let list t dec =
    let n = uvar t in
    if n > max_list_len then fail (Printf.sprintf "list of %d elements" n);
    List.init n (fun _ -> dec t)

  let remaining t = String.length t.input - t.pos

  let expect_end t =
    let left = remaining t in
    if left > 0 then raise (Decode (Trailing left))
end

let bad_tag t = raise (Decode (Bad_tag t))

let encode_body ~tag enc v =
  let w = W.counting () in
  W.u8 w version;
  W.u8 w tag;
  enc w v;
  if w.W.pos > max_frame_len then
    invalid_arg "Wire.encode_body: body exceeds max_frame_len";
  W.to_fill w;
  W.u8 w version;
  W.u8 w tag;
  enc w v;
  W.contents w

(* The u32be length prefix at [pos]. *)
let get_length buf pos =
  (Char.code (Bytes.get buf pos) lsl 24)
  lor (Char.code (Bytes.get buf (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get buf (pos + 2)) lsl 8)
  lor Char.code (Bytes.get buf (pos + 3))

(* The smallest frame is a one-byte trailer length and a two-byte body. *)
let valid_length n = n >= 3 && n <= max_frame_len

let rec uvar_size v = if v < 0x80 then 1 else 1 + uvar_size (v lsr 7)

let frame_size ~payload body_len = 4 + uvar_size payload + body_len + payload

(* The trailer length of a frame is a [uvar] of at most four bytes, which
   covers every trailer a 16 MiB frame can hold.  [trailer_size buf pos
   avail 0] is the size of the one at [pos], of which [avail] bytes are
   buffered: 0 while it is incomplete, -1 past four bytes. *)
let rec trailer_size buf pos avail i =
  if i >= avail then 0
  else if i >= 4 then -1
  else if Char.code (Bytes.get buf (pos + i)) land 0x80 = 0 then i + 1
  else trailer_size buf pos avail (i + 1)

(* The value of the [size]-byte trailer length at [pos]. *)
let rec trailer_value buf pos size acc =
  if size = 0 then acc
  else
    trailer_value buf pos (size - 1)
      ((acc lsl 7) lor (Char.code (Bytes.get buf (pos + size - 1)) land 0x7f))

(* [body]'s frame with a [payload]-byte trailer at [pos] in [buf], which
   holds at least [pos + frame_size ~payload (String.length body)] bytes.
   Closure-free, and the trailer is filled in place. *)
let frame_into buf pos ~payload body =
  let n = String.length body in
  if payload < 0 then invalid_arg "Wire.frame: negative payload";
  let len = frame_size ~payload n - 4 in
  if n < 2 || len > max_frame_len then invalid_arg "Wire.frame: bad body length";
  Bytes.set buf pos (Char.unsafe_chr (len lsr 24));
  Bytes.set buf (pos + 1) (Char.unsafe_chr ((len lsr 16) land 0xff));
  Bytes.set buf (pos + 2) (Char.unsafe_chr ((len lsr 8) land 0xff));
  Bytes.set buf (pos + 3) (Char.unsafe_chr (len land 0xff));
  let pos = ref (pos + 4) and v = ref payload in
  while !v >= 0x80 do
    Bytes.set buf !pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7;
    incr pos
  done;
  Bytes.set buf !pos (Char.unsafe_chr !v);
  Bytes.blit_string body 0 buf (!pos + 1) n;
  Bytes.fill buf (!pos + 1 + n) payload '\x00'

let frame ?(payload = 0) body =
  let b = Bytes.create (frame_size ~payload (String.length body)) in
  frame_into b 0 ~payload body;
  Bytes.unsafe_to_string b

let run_decoder f =
  match f () with
  | v -> Ok v
  | exception Decode e -> Error e
  | exception Invalid_argument reason -> Error (Invalid reason)

let decode_body body f =
  let r = R.of_string body in
  match
    let v = R.u8 r in
    if v <> version then raise (Decode (Bad_version v));
    let tag = R.u8 r in
    let msg = f tag r in
    R.expect_end r;
    msg
  with
  | msg -> Ok msg
  | exception Decode e -> Error e
  | exception Invalid_argument reason -> Error (Invalid reason)

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

(* [read_exact fd buf] fills [buf], returning false on EOF before the
   first byte and raising on mid-buffer EOF (the caller distinguishes a
   clean close from a torn frame). *)
let read_exact fd buf ~mid_frame =
  let n = Bytes.length buf in
  let pos = ref 0 in
  let eof = ref false in
  while !pos < n && not !eof do
    let k = Unix.read fd buf !pos (n - !pos) in
    if k = 0 then
      if !pos = 0 && not mid_frame then eof := true
      else raise (Decode Truncated)
    else pos := !pos + k
  done;
  not !eof

let bad_trailer = Invalid "bad trailer length"

let read_frame fd =
  let header = Bytes.create 4 in
  match read_exact fd header ~mid_frame:false with
  | exception Decode e -> Error (`Frame_error e)
  | false -> Error `Closed
  | true -> (
      let len = get_length header 0 in
      if not (valid_length len) then Error (`Frame_error (Frame_too_large len))
      else
        let rest = Bytes.create len in
        match read_exact fd rest ~mid_frame:true with
        | false -> Error (`Frame_error Truncated)
        | exception Decode e -> Error (`Frame_error e)
        | true ->
            let v = trailer_size rest 0 len 0 in
            let payload = if v > 0 then trailer_value rest 0 v 0 else 0 in
            let n = len - v - payload in
            if v <= 0 || n < 2 then Error (`Frame_error bad_trailer)
            else Ok (payload, Bytes.sub_string rest v n))

(* Output waiting for the wire is [buf.[start .. stop - 1]]. *)
module Frame_writer = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let create () = { buf = Bytes.create 256; start = 0; stop = 0 }

  let clear t =
    t.start <- 0;
    t.stop <- 0

  (* Without room for the frame, the unwritten bytes move to the front,
     into a larger buffer only when the old one is too small. *)
  let add t ~payload body =
    let n = frame_size ~payload (String.length body)
    and cap = Bytes.length t.buf in
    if t.stop + n > cap then begin
      let live = t.stop - t.start in
      let buf =
        if live + n <= cap then t.buf
        else Bytes.create (Int.max (live + n) (2 * cap))
      in
      Bytes.blit t.buf t.start buf 0 live;
      t.buf <- buf;
      t.stop <- live;
      t.start <- 0
    end;
    frame_into t.buf t.stop ~payload body;
    t.stop <- t.stop + n

  let write t fd =
    try
      while t.start < t.stop do
        t.start <- t.start + Unix.write fd t.buf t.start (t.stop - t.start)
      done;
      clear t;
      true
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> false
end

(* Unconsumed input is [buf.[start .. stop - 1]].  Every length prefix
   among it has passed the range check against [limit], so growing the
   buffer to fit the frame it announces is bounded by it.  A frame that is
   all in, trailer included, is handed on in place; otherwise the buffer
   holds its prefix, trailer length and body, never its trailer: once the
   body is copied out, the trailer is skipped where it lands, [trailer]
   bytes of it still to come. *)
module Frame_reader = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable stop : int;
    mutable limit : int;
    mutable payload : int;  (* the trailer length of the frame at [start] *)
    mutable trailer : int;
    mutable body : string;  (* the body whose trailer is still to come *)
  }

  let create () =
    {
      buf = Bytes.create 4096;
      start = 0;
      stop = 0;
      limit = max_frame_len;
      payload = 0;
      trailer = 0;
      body = "";
    }

  let capacity t = Bytes.length t.buf
  let set_limit t limit = t.limit <- limit

  (* The size of the trailer length of the [len]-byte frame at [start],
     with its value in [payload]: 0 while it is incomplete, -1 when it is
     malformed or leaves the body under two bytes. *)
  let header t len =
    let v = trailer_size t.buf (t.start + 4) (t.stop - t.start - 4) 0 in
    if v <= 0 then v
    else begin
      t.payload <- trailer_value t.buf (t.start + 4) v 0;
      if len - v - t.payload < 2 then -1 else v
    end

  (* Hand every frame whose last trailer byte is in to [deliver]; stop at
     the first malformed header. *)
  let rec drain t deliver =
    if t.trailer > 0 then begin
      let k = Int.min t.trailer (t.stop - t.start) in
      t.start <- t.start + k;
      t.trailer <- t.trailer - k;
      if t.trailer > 0 then None else deliver_body t deliver
    end
    else
      let avail = t.stop - t.start in
      if avail < 4 then None
      else
        let len = get_length t.buf t.start in
        if not (valid_length len && len <= t.limit) then
          Some (Frame_too_large len)
        else
          let v = header t len in
          if v < 0 then Some bad_trailer
          else
            let n = len - v - t.payload in
            let off = t.start + 4 + v in
            if v = 0 || avail < 4 + v + n then None
            else if avail >= 4 + len then begin
              (* Nothing writes the buffer until the next [read]. *)
              t.start <- t.start + 4 + len;
              deliver t.payload t.buf off n;
              drain t deliver
            end
            else begin
              t.body <- Bytes.sub_string t.buf off n;
              t.start <- off + n;
              t.trailer <- t.payload;
              drain t deliver
            end

  and deliver_body t deliver =
    let body = t.body in
    t.body <- "";
    deliver t.payload (Bytes.unsafe_of_string body) 0 (String.length body);
    drain t deliver

  (* Move the partial frame to the front, and grow the buffer when the
     header and body its (checked) length prefix announces do not fit. *)
  let make_room t =
    let avail = t.stop - t.start in
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 avail;
      t.start <- 0;
      t.stop <- avail
    end;
    if t.trailer = 0 && avail >= 4 then begin
      let len = get_length t.buf 0 in
      let need = if header t len > 0 then 4 + len - t.payload else 0 in
      let cap = Bytes.length t.buf in
      if need > cap then begin
        let buf = Bytes.create (Int.min (Int.max need (2 * cap)) (4 + max_frame_len)) in
        Bytes.blit t.buf 0 buf 0 avail;
        t.buf <- buf
      end
    end

  let read t fd deliver =
    make_room t;
    let k = Unix.read fd t.buf t.stop (Bytes.length t.buf - t.stop) in
    if k = 0 then
      if t.stop = t.start && t.trailer = 0 then `Closed
      else `Frame_error Truncated
    else begin
      t.stop <- t.stop + k;
      match drain t deliver with
      | None -> `Open
      | Some e -> `Frame_error e
    end
end
