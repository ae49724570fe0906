let version = 0x01
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

module W = struct
  type t = Buffer.t

  let create ?(size = 128) () = Buffer.create size

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg "Wire.W.u8: out of range";
    Buffer.add_char t (Char.chr v)

  let u64 t v =
    for i = 7 downto 0 do
      Buffer.add_char t
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done

  let uvar t v =
    if v < 0 then invalid_arg "Wire.W.uvar: negative";
    let rec go v =
      if v < 0x80 then Buffer.add_char t (Char.chr v)
      else begin
        Buffer.add_char t (Char.chr (0x80 lor (v land 0x7f)));
        go (v lsr 7)
      end
    in
    go v

  (* Zigzag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...  The shift in the
     mapping needs one spare bit, so magnitudes at the very top of the
     int range are refused rather than silently wrapped. *)
  let svar t v =
    if v asr 61 <> 0 && v asr 61 <> -1 then
      invalid_arg "Wire.W.svar: out of range";
    uvar t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))
  let bool t v = u8 t (if v then 1 else 0)

  let bytes t s =
    uvar t (String.length s);
    Buffer.add_string t s

  let option t enc = function
    | None -> u8 t 0
    | Some v ->
        u8 t 1;
        enc t v

  let list t enc vs =
    uvar t (List.length vs);
    List.iter (enc t) vs

  let padding t n =
    if n < 0 then invalid_arg "Wire.W.padding: negative";
    for _ = 1 to n do
      Buffer.add_char t '\x00'
    done

  let contents = Buffer.contents
  let length = Buffer.length
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
    let v = ref 0L in
    for _ = 1 to 8 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (Char.code t.input.[t.pos]));
      t.pos <- t.pos + 1
    done;
    !v

  let uvar t =
    let rec go acc shift =
      if shift >= 63 then fail "varint too long"
      else
        let b = u8 t in
        let low = b land 0x7f in
        if shift > 0 && (low lsl shift) lsr shift <> low then
          fail "varint overflow"
        else
          let acc = acc lor (low lsl shift) in
          if b land 0x80 = 0 then acc else go acc (shift + 7)
    in
    let v = go 0 0 in
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

  let padding t n =
    need t n;
    t.pos <- t.pos + n

  let remaining t = String.length t.input - t.pos

  let expect_end t =
    let left = remaining t in
    if left > 0 then raise (Decode (Trailing left))
end

let bad_tag t = raise (Decode (Bad_tag t))

(* Headers, certificates and timeout certificates together stay well
   under this many bytes; only the payload padding can be large. *)
let header_slack = 128

let encode_body ?(payload_bytes = 0) ~tag enc =
  let w = W.create ~size:(2 + header_slack + payload_bytes) () in
  W.u8 w version;
  W.u8 w tag;
  enc w;
  W.contents w

let frame body =
  let n = String.length body in
  if n < 2 || n > max_frame_len then invalid_arg "Wire.frame: bad body length";
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

let run_decoder f =
  match f () with
  | v -> Ok v
  | exception Decode e -> Error e
  | exception Invalid_argument reason -> Error (Invalid reason)

let decode_body body f =
  run_decoder (fun () ->
      let r = R.of_string body in
      let v = R.u8 r in
      if v <> version then raise (Decode (Bad_version v));
      let tag = R.u8 r in
      let msg = f tag r in
      R.expect_end r;
      msg)

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

let read_frame fd =
  let header = Bytes.create 4 in
  match read_exact fd header ~mid_frame:false with
  | exception Decode e -> Error (`Frame_error e)
  | false -> Error `Closed
  | true -> (
      let len =
        (Char.code (Bytes.get header 0) lsl 24)
        lor (Char.code (Bytes.get header 1) lsl 16)
        lor (Char.code (Bytes.get header 2) lsl 8)
        lor Char.code (Bytes.get header 3)
      in
      if len < 2 || len > max_frame_len then
        Error (`Frame_error (Frame_too_large len))
      else
        let body = Bytes.create len in
        match read_exact fd body ~mid_frame:true with
        | true -> Ok (Bytes.unsafe_to_string body)
        | false -> Error (`Frame_error Truncated)
        | exception Decode e -> Error (`Frame_error e))
