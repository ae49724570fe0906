(* Wire-format and live-network substrate tests.

   Codec layer: qcheck round-trips (decode of encode is the identity) over
   every constructor of both message families, strict-prefix truncation
   rejection, garbage-never-raises fuzzing, and byte-pinned vectors that
   docs/WIRE.md quotes verbatim.

   Transport layer: localhost TCP clusters for all five protocols (thread
   and process modes), survival under malformed-frame injection, trace
   merging, and the substrate cross-validation: the simulator and the
   socket clusters must commit identical chains.

   Accounting pass: [Net_harness.check], [Net_harness.account],
   [Net_harness.net_liveness], [Net_harness.client_stats] and
   [Tcp.quorum_latencies] on synthetic socket results built from real
   block chains, no sockets involved.

   Node host: the logical fault step both substrates run after each event,
   fed views by hand.

   Executor: the socket node's loop body on a hand-advanced clock and a
   sink that records frames, releases and WAL snapshots, no sockets
   involved. *)

open Bft_types
module Wire = Bft_net.Wire
module Tcp = Bft_net.Tcp
module Codec = Moonshot.Codec
module Jcodec = Jolteon.Jolteon_codec
module Message = Moonshot.Message
module Jmsg = Jolteon.Jolteon_msg
module Cert = Moonshot.Cert
module Tc = Moonshot.Tc
module Vote_kind = Moonshot.Vote_kind
module Net_harness = Bft_runtime.Net_harness
module Protocol_kind = Bft_runtime.Protocol_kind

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

(* --- generators ----------------------------------------------------------- *)

let payload_gen =
  let* id = QCheck.Gen.int_range 0 10_000 in
  let* size_bytes = QCheck.Gen.int_range 0 200 in
  QCheck.Gen.return (Payload.make ~id ~size_bytes)

(* A structurally valid block: a short chain grown from genesis, so
   heights, views and parent hashes all satisfy the smart constructors. *)
let block_gen =
  let* depth = QCheck.Gen.int_range 1 4 in
  let* proposer = QCheck.Gen.int_range 0 9 in
  let* view_step = QCheck.Gen.int_range 1 3 in
  let* payload = payload_gen in
  let rec grow parent d =
    if d = 0 then parent
    else
      grow
        (Block.create ~parent
           ~view:(parent.Block.view + view_step)
           ~proposer ~payload)
        (d - 1)
  in
  QCheck.Gen.return (grow Block.genesis depth)

let vote_kind_gen =
  QCheck.Gen.oneofl [ Vote_kind.Opt; Vote_kind.Normal; Vote_kind.Fallback ]

let cert_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Cert.genesis;
      (let* kind = vote_kind_gen in
       let* block = block_gen in
       let* signers = QCheck.Gen.int_range 1 10 in
       QCheck.Gen.return
         (Cert.make ~kind ~view:block.Block.view ~block ~signers));
    ]

let tc_gen =
  let* view = QCheck.Gen.int_range 1 50 in
  let* high_cert = QCheck.Gen.option cert_gen in
  let* signers = QCheck.Gen.int_range 1 10 in
  QCheck.Gen.return (Tc.make ~view ~high_cert ~signers)

let msg_gen : Message.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      (let* block = block_gen in
       QCheck.Gen.return (Message.Opt_propose { block }));
      (let* block = block_gen in
       let* cert = cert_gen in
       QCheck.Gen.return (Message.Propose { block; cert }));
      (let* block = block_gen in
       let* cert = cert_gen in
       let* tc = tc_gen in
       QCheck.Gen.return (Message.Fb_propose { block; cert; tc }));
      (let* kind = vote_kind_gen in
       let* block = block_gen in
       QCheck.Gen.return (Message.Vote { kind; block }));
      (let* view = QCheck.Gen.int_range 1 1000 in
       let* lock = QCheck.Gen.option cert_gen in
       QCheck.Gen.return (Message.Timeout { view; lock }));
      (let* c = cert_gen in
       QCheck.Gen.return (Message.Cert_gossip c));
      (let* tc = tc_gen in
       QCheck.Gen.return (Message.Tc_gossip tc));
      (let* view = QCheck.Gen.int_range 1 1000 in
       let* lock = cert_gen in
       QCheck.Gen.return (Message.Status { view; lock }));
      (let* view = QCheck.Gen.int_range 1 1000 in
       let* block = block_gen in
       QCheck.Gen.return (Message.Commit_vote { view; block }));
      (let* block = block_gen in
       QCheck.Gen.return (Message.Block_request { hash = block.Block.hash }));
      (let* blocks = QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) block_gen in
       QCheck.Gen.return (Message.Blocks_response { blocks }));
    ]

let jmsg_gen : Jmsg.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      (let* block = block_gen in
       let* qc = cert_gen in
       let* tc = QCheck.Gen.option tc_gen in
       QCheck.Gen.return (Jmsg.Propose { block; qc; tc }));
      (let* block = block_gen in
       QCheck.Gen.return (Jmsg.Vote { block }));
      (let* round = QCheck.Gen.int_range 1 1000 in
       let* high_qc = cert_gen in
       QCheck.Gen.return (Jmsg.Timeout { round; high_qc }));
      (let* block = block_gen in
       QCheck.Gen.return (Jmsg.Block_request { hash = block.Block.hash }));
      (let* blocks = QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) block_gen in
       QCheck.Gen.return (Jmsg.Blocks_response { blocks }));
    ]

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" Message.pp) msg_gen
let arb_jmsg = QCheck.make ~print:(Format.asprintf "%a" Jmsg.pp) jmsg_gen

(* --- round-trip properties ------------------------------------------------- *)

let prop_roundtrip_moonshot =
  QCheck.Test.make ~name:"moonshot codec round-trip" ~count:500 arb_msg
    (fun m -> Codec.decode (Codec.encode m) = Ok m)

let prop_roundtrip_jolteon =
  QCheck.Test.make ~name:"jolteon codec round-trip" ~count:500 arb_jmsg
    (fun m -> Jcodec.decode (Jcodec.encode m) = Ok m)

(* Every strict prefix of a valid body must be rejected: the decoder's
   reads are deterministic, so a cut can only surface as an error, never
   as a different successful parse. *)
let prop_truncation_moonshot =
  QCheck.Test.make ~name:"moonshot truncated frames rejected" ~count:200
    arb_msg (fun m ->
      let body = Codec.encode m in
      List.for_all
        (fun k -> Result.is_error (Codec.decode (String.sub body 0 k)))
        (List.init (String.length body) (fun k -> k)))

let prop_truncation_jolteon =
  QCheck.Test.make ~name:"jolteon truncated frames rejected" ~count:200
    arb_jmsg (fun m ->
      let body = Jcodec.encode m in
      List.for_all
        (fun k -> Result.is_error (Jcodec.decode (String.sub body 0 k)))
        (List.init (String.length body) (fun k -> k)))

(* Garbage in, Error out — never an exception. *)
let garbage_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.string_size (QCheck.Gen.int_range 0 64);
      (* Valid version byte, then noise: exercises the per-tag readers. *)
      (let* tag = QCheck.Gen.int_range 0 0x30 in
       let* rest = QCheck.Gen.string_size (QCheck.Gen.int_range 0 64) in
       QCheck.Gen.return
         (Printf.sprintf "%c%c%s" (Char.chr Wire.version) (Char.chr tag) rest));
    ]

let prop_garbage_never_raises =
  QCheck.Test.make ~name:"garbage frames never raise" ~count:2000
    (QCheck.make garbage_gen) (fun s ->
      (match Codec.decode s with Ok _ -> true | Error _ -> true)
      && match Jcodec.decode s with Ok _ -> true | Error _ -> true)

(* --- varint primitives ----------------------------------------------------- *)

let prop_uvar_roundtrip =
  QCheck.Test.make ~name:"uvar round-trip" ~count:1000
    (* [land max_int] rather than [abs]: abs min_int is still negative. *)
    QCheck.(map (fun i -> i land max_int) int)
    (fun v ->
      let r = Wire.R.of_string (Wire.W.to_string Wire.W.uvar v) in
      let v' = Wire.R.uvar r in
      Wire.R.expect_end r;
      v' = v)

let prop_svar_roundtrip =
  (* [asr 2] keeps magnitudes under the writer's 2^61 zigzag bound while
     still covering the full sign range. *)
  QCheck.Test.make ~name:"svar round-trip" ~count:1000
    QCheck.(map (fun i -> i asr 2) int)
    (fun v ->
      let r = Wire.R.of_string (Wire.W.to_string Wire.W.svar v) in
      let v' = Wire.R.svar r in
      Wire.R.expect_end r;
      v' = v)

(* --- pinned vectors (quoted in docs/WIRE.md) ------------------------------- *)

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init
    (String.length s) (fun i -> Char.code s.[i])))

let pinned_vote_vector () =
  let body = Codec.encode (Message.Vote { kind = Vote_kind.Normal; block = Block.genesis }) in
  Alcotest.(check string)
    "Vote{Normal, genesis} body" "02040100000000000000000000010000"
    (hex body);
  Alcotest.(check string)
    "framed" ("00000011" ^ "00" ^ hex body)
    (hex (Wire.frame body))

let pinned_timeout_vector () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  Alcotest.(check string) "Timeout{3, None} body" "02050300" (hex body)

let pinned_jolteon_vote_vector () =
  let body = Jcodec.encode (Jmsg.Vote { block = Block.genesis }) in
  Alcotest.(check string)
    "Jolteon Vote{genesis} body" "022200000000000000000000010000"
    (hex body)

(* A view-1 proposal on genesis with a 300-byte payload: the body holds
   only the payload's size (a two-byte varint, [ac 02]); the frame's
   trailer length says the same, and 300 zeros end the frame. *)
let pinned_proposal_vector () =
  let block =
    Block.create ~parent:Block.genesis ~view:1 ~proposer:1
      ~payload:(Payload.make ~id:1 ~size_bytes:300)
  in
  let m = Message.Propose { block; cert = Cert.genesis } in
  let body = Codec.encode m in
  Alcotest.(check string)
    "Propose{view 1, 300 B payload; genesis cert} body"
    "020253d3efa3b1aa8f5d01010201ac0201000000000000000000000001000001"
    (hex body);
  Alcotest.(check int) "payload bytes" 300 (Message.payload_bytes m);
  Alcotest.(check string) "framed"
    ("0000014e" ^ "ac02" ^ hex body ^ String.make 600 '0')
    (hex (Wire.frame ~payload:300 body))

let bad_version_rejected () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  let bad = "\x01" ^ String.sub body 1 (String.length body - 1) in
  match Codec.decode bad with
  | Error (Wire.Bad_version 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad version accepted"

let unknown_tag_rejected () =
  match Codec.decode "\x02\x7f" with
  | Error (Wire.Bad_tag 0x7f) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "unknown tag accepted"

let trailing_rejected () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  match Codec.decode (body ^ "\x00") with
  | Error (Wire.Trailing 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let negative_height_rejected () =
  (* A hand-built Vote body whose height varint zigzag-decodes fine but
     whose block constructor must refuse it: proposer -2 (svar 03). *)
  let body =
    Wire.W.to_string
      (fun w () ->
        Wire.W.u8 w Wire.version;
        Wire.W.u8 w 0x04;
        Wire.W.u8 w 1;
        Wire.W.u64 w 0L;
        Wire.W.uvar w 0;
        Wire.W.uvar w 0;
        Wire.W.svar w (-2);
        Wire.W.uvar w 0;
        Wire.W.uvar w 0)
      ()
  in
  match Codec.decode body with
  | Error (Wire.Invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad proposer accepted"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* A snapshot as the [Buffer]-based writer wrote it: lock on a view-1
   block with a 180-byte payload, view 300, Opt vote for a view-2 block.
   It must still decode, and re-encode to the same bytes, so that a WAL
   file survives an upgrade. *)
let pinned_wal_snapshot () =
  let bytes =
    of_hex
      "01ac02010153d3efa3b1aa8f5d01010207b4010302013c5f6a2e161100fe020204080001"
  in
  match Codec.decode_wal bytes with
  | Error e -> Alcotest.fail e
  | Ok wal -> (
      Alcotest.(check string) "re-encodes to the same bytes" (hex bytes)
        (hex (Codec.encode_wal wal));
      match Moonshot.Wal.load wal with
      | None -> Alcotest.fail "no record"
      | Some st ->
          Alcotest.(check int) "view" 300 st.Moonshot.Wal.cur_view;
          Alcotest.(check int) "lock view" 1 st.Moonshot.Wal.lock.Cert.view;
          Alcotest.(check (option int)) "opt vote's view" (Some 2)
            (Option.map (fun b -> b.Block.view) st.Moonshot.Wal.voted_opt))

(* --- frames: the buffered reader and the sender ---------------------------- *)

module Reader = Wire.Frame_reader

(* Frames of bodies from 2 bytes to past the reader's 4 KiB starting
   buffer, with trailers from none to 64 KiB, cut after 160 KiB in all;
   and the chunk sizes the stream arrives in, cycled, mostly small enough
   to cut inside length prefixes and trailer lengths. *)
let stream_gen =
  let open QCheck.Gen in
  let frame =
    let* len =
      frequency
        [ (8, int_range 2 64); (3, int_range 65 1500); (1, int_range 4000 9000) ]
    in
    let* body = string_size ~gen:char (return len) in
    let* payload =
      frequency
        [ (4, return 0); (3, int_range 1 300); (1, int_range 4000 65536) ]
    in
    return (payload, body)
  in
  let* frames = list_size (int_range 0 12) frame in
  let rec under total = function
    | (payload, b) :: rest
      when total + payload + String.length b <= 160 * 1024 ->
        (payload, b) :: under (total + payload + String.length b) rest
    | _ -> []
  in
  let* chunks =
    list_size (int_range 1 8)
      (frequency [ (4, return 1); (3, int_range 2 7); (2, int_range 8 9000) ])
  in
  return (under 0 frames, chunks)

(* What the buffered reader yields for [stream] written into a pipe in
   chunks of the given sizes, each chunk read before the next is written,
   then EOF: the (trailer, body) pairs, the final status, and the largest
   buffer it had. *)
let buffered_read stream chunks =
  let rd, wr = Unix.pipe () in
  Unix.set_nonblock rd;
  let r = Reader.create () and got = ref [] and status = ref `Open in
  let cap = ref (Reader.capacity r) in
  let deliver payload body = got := (payload, body) :: !got in
  let rec read_all () =
    match Reader.read r rd deliver with
    | `Open ->
        cap := Int.max !cap (Reader.capacity r);
        read_all ()
    | st -> status := st
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  let rec feed pos = function
    | [] -> feed pos chunks
    | k :: rest when pos < String.length stream && !status = `Open ->
        let k = Int.min k (String.length stream - pos) in
        Wire.write_all wr (String.sub stream pos k);
        read_all ();
        feed (pos + k) rest
    | _ -> ()
  in
  feed 0 chunks;
  Unix.close wr;
  if !status = `Open then read_all ();
  Unix.close rd;
  (List.rev !got, !status, !cap)

(* The same stream through [Wire.read_frame], one frame per call, from a
   file (a pipe would not hold it). *)
let exact_read stream =
  let file = Filename.temp_file "moonshot-frames" "" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc stream);
  let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
  let rec go acc =
    match Wire.read_frame fd with
    | Ok frame -> go (frame :: acc)
    | Error _ -> List.rev acc
  in
  let frames = go [] in
  Unix.close fd;
  Sys.remove file;
  frames

(* Every frame arrives whole, trailer length included, and the reader's
   buffer grows for bodies only: never past the largest body's frame
   header and body, however long the trailers. *)
let prop_reader_matches_read_frame =
  QCheck.Test.make ~name:"buffered reader = read_frame under any chunking"
    ~count:200 (QCheck.make stream_gen) (fun (frames, chunks) ->
      let stream =
        String.concat ""
          (List.map (fun (payload, b) -> Wire.frame ~payload b) frames)
      in
      let got, status, cap = buffered_read stream chunks in
      let want = exact_read stream in
      let biggest =
        List.fold_left
          (fun acc (payload, b) ->
            Int.max acc (Wire.frame_size ~payload (String.length b) - payload))
          0 frames
      in
      want = frames && got = want && status = `Closed
      && cap <= Int.max 4096 (2 * biggest))

let frame_error = function
  | `Frame_error e -> Wire.error_to_string e
  | `Open -> "open"
  | `Closed -> "closed"

(* A length prefix out of range ends the stream without growing the
   buffer, whether it arrives alone or behind a good frame. *)
let reader_rejects_bad_length () =
  List.iter
    (fun (len, behind) ->
      let r = Reader.create () in
      let cap = Reader.capacity r in
      let rd, wr = Unix.pipe () in
      let prefix =
        String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
      in
      let good = if behind then Wire.frame "\x02\x05\x03\x00" else "" in
      Wire.write_all wr (good ^ prefix ^ String.make 64 'x');
      let got = ref 0 in
      let status = Reader.read r rd (fun _ _ -> incr got) in
      Alcotest.(check string)
        (Printf.sprintf "length %d rejected" len)
        (Wire.error_to_string (Wire.Frame_too_large len))
        (frame_error status);
      Alcotest.(check int) "frames before it delivered"
        (if behind then 1 else 0)
        !got;
      Alcotest.(check int) "buffer not grown" cap (Reader.capacity r);
      Unix.close rd;
      Unix.close wr)
    [
      (0, false);
      (1, true);
      (2, false);
      (Wire.max_frame_len + 1, false);
      (Wire.max_frame_len + 1, true);
      (0xffff_ffff, false);
    ]

(* A reader under a hello-sized limit refuses a larger frame without
   growing, unless the first frame lifts the limit as an accepted hello
   does.  The limit bounds the whole frame, so a short body with a long
   trailer is refused like a long body. *)
let reader_limit () =
  let hello = String.make 16 'h' in
  List.iter
    (fun (lift, (payload, big)) ->
      let r = Reader.create () in
      Reader.set_limit r (Wire.frame_size ~payload:0 (String.length hello) - 4);
      let cap = Reader.capacity r in
      let rd, wr = Unix.pipe () in
      Wire.write_all wr (Wire.frame hello ^ Wire.frame ~payload big);
      Unix.close wr;
      let got = ref [] and status = ref `Open in
      let deliver p body =
        if lift then Reader.set_limit r Wire.max_frame_len;
        got := (p, body) :: !got
      in
      while !status = `Open do
        status := Reader.read r rd deliver
      done;
      Unix.close rd;
      if lift then begin
        Alcotest.(check string) "lifted: stream ends cleanly" "closed"
          (frame_error !status);
        Alcotest.(check bool) "lifted: both frames" true
          (List.rev !got = [ (0, hello); (payload, big) ])
      end
      else begin
        Alcotest.(check string) "kept: refused"
          (Wire.error_to_string
             (Wire.Frame_too_large
                (Wire.frame_size ~payload (String.length big) - 4)))
          (frame_error !status);
        Alcotest.(check int) "kept: buffer not grown" cap (Reader.capacity r)
      end)
    (List.concat_map
       (fun lift ->
         [ (lift, (0, "\x02\x05" ^ String.make 8192 'b'));
           (lift, (8192, "\x02\x05")) ])
       [ true; false ])

(* EOF at a frame boundary closes; EOF inside a frame, its length prefix
   and trailer included, is a torn frame.  A frame is delivered only once
   its last trailer byte is in. *)
let reader_eof () =
  let frame = Wire.frame "\x02\x05\x03\x00" in
  let long = Wire.frame ~payload:5000 "\x02\x05\x03\x00" in
  List.iter
    (fun (what, input, want, frames) ->
      let r = Reader.create () in
      let rd, wr = Unix.pipe () in
      Wire.write_all wr input;
      Unix.close wr;
      let status = ref `Open and got = ref 0 in
      while !status = `Open do
        status := Reader.read r rd (fun _ _ -> incr got)
      done;
      Unix.close rd;
      Alcotest.(check string) what want (frame_error !status);
      Alcotest.(check int) (what ^ ": frames delivered") frames !got)
    [
      ("empty stream", "", "closed", 0);
      ("after a whole frame", frame, "closed", 1);
      ("after a whole trailer", frame ^ long, "closed", 2);
      ("inside a body", frame ^ String.sub frame 0 6, "truncated input", 1);
      ( "inside a length prefix",
        frame ^ String.sub frame 0 2,
        "truncated input",
        1 );
      ( "inside a trailer",
        frame ^ String.sub long 0 (String.length long - 1),
        "truncated input",
        1 );
    ]

(* A malformed trailer length ends the stream like a bad length prefix:
   one of five bytes, or one that leaves the body under two bytes. *)
let reader_bad_trailer () =
  List.iter
    (fun (what, rest) ->
      let r = Reader.create () in
      let rd, wr = Unix.pipe () in
      let len = String.length rest in
      let prefix =
        String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
      in
      Wire.write_all wr (Wire.frame "\x02\x05\x03\x00" ^ prefix ^ rest);
      Unix.close wr;
      let got = ref 0 and status = ref `Open in
      while !status = `Open do
        status := Reader.read r rd (fun _ _ -> incr got)
      done;
      Unix.close rd;
      Alcotest.(check string) what "bad trailer length" (frame_error !status);
      Alcotest.(check int) (what ^ ": the frame before it delivered") 1 !got)
    [
      ("five-byte trailer length", "\x80\x80\x80\x80\x00\x02\x05");
      ("no room for a body", "\x03\x02\x05\x00\x00");
    ]

(* The sender writes each frame, trailer included, behind the framed
   hello, and counts every frame's bytes. *)
let sender_frames () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 4;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let hello = "\x02\x00hello" in
  let frames =
    [ (0, "\x02\x05"); (0, String.make 16 'v'); (300, String.make 300 'p');
      (70_000, String.make 5000 'q') ]
  in
  let t0 = Unix.gettimeofday () in
  let cm =
    Bft_net.Conn_manager.create ~n:2 ~id:0 ~ports:[| 0; port |] ~hello
      ~now_into:(fun a i -> a.(i) <- (Unix.gettimeofday () -. t0) *. 1000.)
      ~plane:Bft_net.Fault_plane.none ()
  in
  List.iter
    (fun (payload, b) -> Bft_net.Conn_manager.send cm ~dst:1 ~src_view:0 ~payload b)
    frames;
  Bft_net.Conn_manager.release cm;
  Alcotest.(check bool) "queue drained" true
    (Bft_net.Conn_manager.drain cm);
  let st = Bft_net.Conn_manager.stats cm in
  Bft_net.Conn_manager.close cm;
  let fd, _ = Unix.accept listener in
  let received = Buffer.create 8192 and buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes received buf 0 k;
        drain ()
  in
  drain ();
  Unix.close fd;
  Unix.close listener;
  Alcotest.(check string) "hello, then each frame"
    (hex
       (String.concat ""
          (Wire.frame hello
          :: List.map (fun (payload, b) -> Wire.frame ~payload b) frames)))
    (hex (Buffer.contents received));
  Alcotest.(check int) "messages sent" (List.length frames)
    st.Bft_net.Conn_manager.messages_sent;
  Alcotest.(check int) "bytes sent: whole frames"
    (List.fold_left
       (fun acc (payload, b) -> acc + Wire.frame_size ~payload (String.length b))
       0 frames)
    st.Bft_net.Conn_manager.bytes_sent

module Cm = Bft_net.Conn_manager

let test_hello = "\x02\x00hello"

(* A loopback listener on a free port, with accept queue [backlog] and
   receive buffer [rcvbuf] if given, and node 0 of two managing its
   connection to it on [plane], on the wall clock. *)
let manager_to_listener ?rcvbuf ?(backlog = 4)
    ?(plane = Bft_net.Fault_plane.none) () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int listener Unix.SO_RCVBUF) rcvbuf;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener backlog;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let t0 = Unix.gettimeofday () in
  let cm =
    Cm.create ~n:2 ~id:0 ~ports:[| 0; port |] ~hello:test_hello
      ~now_into:(fun a i -> a.(i) <- (Unix.gettimeofday () -. t0) *. 1000.)
      ~plane ()
  in
  (listener, cm)

(* Accept the manager's connection and read it to EOF. *)
let accept_all listener =
  let fd, _ = Unix.accept listener in
  let received = Buffer.create 8192 and buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes received buf 0 k;
        drain ()
  in
  drain ();
  Unix.close fd;
  Unix.close listener;
  Buffer.contents received

(* A frame sent after the last release never reaches the wire. *)
let held_frame_unwritten () =
  let listener, cm = manager_to_listener () in
  Cm.send cm ~dst:1 ~src_view:0 ~payload:0 "\x01\x05released";
  Cm.release cm;
  Cm.send cm ~dst:1 ~src_view:0 ~payload:0 "\x01\x05held";
  let st = Cm.stats cm in
  Cm.close cm;
  Alcotest.(check string) "hello, then the released frame only"
    (hex (Wire.frame test_hello ^ Wire.frame "\x01\x05released"))
    (hex (accept_all listener));
  Alcotest.(check int) "messages sent" 1 st.Cm.messages_sent

(* 8 MiB to a peer that does not read: far more than its 64 KiB receive
   buffer and the kernel's 4 MiB send-buffer cap hold.  [release] writes
   what the kernel takes and returns; once the peer reads, later releases
   write the rest, in order. *)
let stalled_peer () =
  let listener, cm = manager_to_listener ~rcvbuf:65536 () in
  let bodies =
    List.init 128 (fun i ->
        Printf.sprintf "\x01%c%s" (Char.chr i) (String.make 65536 'b'))
  in
  List.iter (Cm.send cm ~dst:1 ~src_view:0 ~payload:0) bodies;
  let t = Unix.gettimeofday () in
  Cm.release cm;
  let took = Unix.gettimeofday () -. t in
  Alcotest.(check bool)
    (Printf.sprintf "release returned after %.3f s" took)
    true (took < 1.);
  Alcotest.(check bool) "output left for later" true (Cm.blocked cm <> []);
  let fd, _ = Unix.accept listener in
  let reader = Reader.create () and got = ref [] and frames = ref 0 in
  let deliver _ body =
    got := body :: !got;
    incr frames
  in
  let status = ref `Open and deadline = Unix.gettimeofday () +. 10. in
  while !status = `Open && !frames < 129 && Unix.gettimeofday () < deadline do
    (match Unix.select [ fd ] (Cm.blocked cm) [] 0.1 with
    | [], _, _ -> ()
    | _ -> status := Reader.read reader fd deliver);
    Cm.release cm
  done;
  let st = Cm.stats cm in
  Cm.close cm;
  Unix.close fd;
  Unix.close listener;
  Alcotest.(check int) "frames received" 129 !frames;
  Alcotest.(check bool) "hello, then every body in order" true
    (List.rev !got = test_hello :: bodies);
  Alcotest.(check int) "messages sent" 128 st.Cm.messages_sent;
  Alcotest.(check int) "bytes sent: whole frames"
    (List.fold_left
       (fun acc b -> acc + Wire.frame_size ~payload:0 (String.length b))
       0 bodies)
    st.Cm.bytes_sent

(* A crash drain waits out a delay window: frames held 600 ms reach the
   wire before [drain] returns. *)
let drain_waits_out_delay () =
  let sched =
    match Bft_faults.Fault_schedule.of_string "delay@0-60000:600" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let plane =
    Bft_net.Fault_plane.compile ~n:2 ~clock:Bft_net.Fault_plane.Wall_ms
      ~seed:1 ~link_delay_ms:0. ~heal_bound_ms:0. sched
  in
  let listener, cm = manager_to_listener ~plane () in
  let bodies = [ "\x01\x05"; String.make 16 'v'; String.make 300 'p' ] in
  List.iter (Cm.send cm ~dst:1 ~src_view:0 ~payload:0) bodies;
  Cm.release cm;
  Alcotest.(check int) "nothing written before the delay" 0
    (Cm.stats cm).Cm.messages_sent;
  let t = Unix.gettimeofday () in
  Alcotest.(check bool) "drained" true (Cm.drain cm);
  let took = Unix.gettimeofday () -. t in
  Alcotest.(check bool)
    (Printf.sprintf "drain waited %.3f s for the delay" took)
    true (took > 0.5);
  Cm.close cm;
  Alcotest.(check string) "hello, then each body's frame"
    (hex (String.concat "" (List.map Wire.frame (test_hello :: bodies))))
    (hex (accept_all listener))

(* A dial to a listener whose accept queue is full does not wait for the
   handshake: [release] returns at once, and the hello and the frame
   follow once the listener accepts.  (Should the dial wait, the listener
   is closed after 1.5 s so that it fails instead of hanging.) *)
let dial_never_waits () =
  let listener, cm = manager_to_listener ~backlog:0 () in
  let filler = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect filler (Unix.getsockname listener);
  let body = "\x01\x05queued" in
  Cm.send cm ~dst:1 ~src_view:0 ~payload:0 body;
  let returned = Atomic.make false in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        Thread.delay 1.5;
        if not (Atomic.get returned) then Unix.close listener)
      ()
  in
  let t = Unix.gettimeofday () in
  Cm.release cm;
  Atomic.set returned true;
  let took = Unix.gettimeofday () -. t in
  Alcotest.(check bool)
    (Printf.sprintf "release returned after %.3f s" took)
    true (took < 0.2);
  Alcotest.(check bool) "connect in progress" true (Cm.blocked cm <> []);
  let accepted = ref [] and deadline = Unix.gettimeofday () +. 10. in
  while Cm.blocked cm <> [] && Unix.gettimeofday () < deadline do
    (match Unix.select [ listener ] (Cm.blocked cm) [] 0.1 with
    | l :: _, _, _ -> accepted := fst (Unix.accept l) :: !accepted
    | _ -> ());
    Cm.release cm
  done;
  (* The dial can complete, and the frame go out, before [select] sees
     the listener readable: accept the connection still queued. *)
  if List.length !accepted < 2 then (
    match Unix.select [ listener ] [] [] 1. with
    | l :: _, _, _ -> accepted := fst (Unix.accept l) :: !accepted
    | _ -> ());
  Cm.close cm;
  Unix.close filler;
  let received = Buffer.create 64 and buf = Bytes.create 64 in
  List.iter
    (fun fd ->
      let rec drain () =
        match Unix.read fd buf 0 64 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes received buf 0 k;
            drain ()
      in
      drain ();
      Unix.close fd)
    !accepted;
  Unix.close listener;
  Alcotest.(check string) "hello, then the frame"
    (hex (Wire.frame test_hello ^ Wire.frame body))
    (hex (Buffer.contents received))

(* Frames a broken connection does not take count as dropped, not sent. *)
let broken_connection_drops () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener, cm = manager_to_listener () in
  let send_release body =
    Cm.send cm ~dst:1 ~src_view:0 ~payload:0 body;
    Cm.release cm
  in
  send_release "\x01\x05first";
  let fd, _ = Unix.accept listener in
  let want = String.length (Wire.frame test_hello ^ Wire.frame "\x01\x05first") in
  let buf = Bytes.create want in
  let rec read_all pos =
    if pos < want then read_all (pos + Unix.read fd buf pos (want - pos))
  in
  read_all 0;
  Unix.close fd;
  (* The kernel takes this one; the peer answers it with a reset. *)
  send_release "\x01\x05second";
  Unix.sleepf 0.05;
  Cm.send cm ~dst:1 ~src_view:0 ~payload:0 "\x01\x05third";
  send_release "\x01\x05fourth";
  let st = Cm.stats cm in
  Cm.close cm;
  Unix.close listener;
  Alcotest.(check int) "messages sent" 2 st.Cm.messages_sent;
  Alcotest.(check int) "bytes sent"
    (Wire.frame_size ~payload:0 7 + Wire.frame_size ~payload:0 8)
    st.Cm.bytes_sent;
  Alcotest.(check int) "dropped" 2 st.Cm.dropped.(1)

(* Once the FIFO ring and the peer's output buffer have grown to the
   backlog, sending and releasing a frame allocates nothing: rounds of
   twenty 64-byte bodies with 300-byte trailers, each round read out by
   the peer.  While the FIFO was a [Queue] of records, a send cost about
   100 B: the record, its boxed release time, the queue cell, and the
   boxed clock and delay readings. *)
let sender_alloc () =
  let listener, cm = manager_to_listener () in
  let body = "\x02\x05" ^ String.make 62 'v' and payload = 300 in
  let per_round = 20 in
  let round_bytes = per_round * Wire.frame_size ~payload (String.length body) in
  let buf = Bytes.create round_bytes in
  let round () =
    for _ = 1 to per_round do
      Cm.send cm ~dst:1 ~src_view:0 ~payload body
    done;
    Cm.release cm
  in
  round ();
  let fd, _ = Unix.accept listener in
  let rec read_exactly fd n =
    if n > 0 then read_exactly fd (n - Unix.read fd buf 0 (Int.min n round_bytes))
  in
  read_exactly fd (String.length (Wire.frame test_hello) + round_bytes);
  let rounds = 200 in
  let bytes =
    Bft_obs.Alloc.measure (fun () ->
        for _ = 1 to rounds do
          round ();
          read_exactly fd round_bytes
        done)
  in
  let st = Cm.stats cm in
  Cm.close cm;
  Unix.close fd;
  Unix.close listener;
  Alcotest.(check int) "every frame sent" ((rounds + 1) * per_round)
    st.Cm.messages_sent;
  let per_frame = bytes /. float_of_int (rounds * per_round) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f B/frame under 0.1" per_frame)
    true (per_frame < 0.1)

(* --- live clusters --------------------------------------------------------- *)

let cluster_case kind =
  Alcotest.test_case (Protocol_kind.name kind) `Quick (fun () ->
      let cfg = Net_harness.config kind ~n:4 ~blocks:3 in
      let r = Net_harness.run kind cfg in
      match Net_harness.check r ~target:3 with
      | Ok () -> ()
      | Error reason -> Alcotest.fail reason)

(* The acceptance bar: 50 blocks over real sockets. *)
let fifty_blocks () =
  let kind = Protocol_kind.Commit_moonshot in
  let cfg = Net_harness.config kind ~n:4 ~blocks:50 in
  let r = Net_harness.run kind cfg in
  match Net_harness.check r ~target:50 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

let process_mode () =
  let kind = Protocol_kind.Commit_moonshot in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:3) with
      Tcp.mode = Tcp.Processes;
    }
  in
  let r = Net_harness.run kind cfg in
  match Net_harness.check r ~target:3 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* [Tcp.run] refuses a config it cannot run before it binds a socket.  The
   short timeout keeps a config that slipped through from running long. *)
let validate_rejects () =
  let kind = Protocol_kind.Commit_moonshot in
  let base =
    { (Net_harness.config kind ~n:4 ~blocks:3) with Tcp.timeout_ms = 1000. }
  in
  List.iter
    (fun (what, cfg) ->
      match Net_harness.run kind cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("n < 1", { base with Tcp.n = 0 });
      (* A recovery order carries its node id in one byte. *)
      ("n > 256", { base with Tcp.n = 257 });
      ("base port 0", { base with Tcp.base_port = Some 0 });
      ("port range past 65535", { base with Tcp.base_port = Some 65534 });
      ("negative link delay", { base with Tcp.link_delay_ms = -1. });
    ]

(* A target no cluster reaches in time: the coordinator must stop every
   node at the deadline, cooperatively, and still hand back each node's
   result (in process mode, the blob a child sends over its pipe). *)
let deadline_exit mode () =
  let kind = Protocol_kind.Commit_moonshot in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:100_000) with
      Tcp.mode;
      timeout_ms = 400.;
    }
  in
  let r = Net_harness.run kind cfg in
  Alcotest.(check bool) "target not reached" false r.Tcp.reached_target;
  Alcotest.(check bool) "stopped cooperatively" true
    (r.Tcp.outcome = Tcp.Completed);
  Alcotest.(check bool)
    (Printf.sprintf "wall %.0f ms within timeout + 2 s" r.Tcp.wall_ms)
    true
    (r.Tcp.wall_ms < cfg.Tcp.timeout_ms +. 2000.);
  Alcotest.(check (list int)) "one result per node" [ 0; 1; 2; 3 ]
    (Array.to_list (Array.map (fun nr -> nr.Tcp.id) r.Tcp.nodes));
  Array.iter
    (fun nr ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d result handed back" nr.Tcp.id)
        true
        (nr.Tcp.messages_sent > 0 && nr.Tcp.commits <> []))
    r.Tcp.nodes

let traced_cluster () =
  let kind = Protocol_kind.Pipelined_moonshot in
  let cfg =
    { (Net_harness.config kind ~n:4 ~blocks:3) with Tcp.trace = true }
  in
  let r = Net_harness.run kind cfg in
  let quorum = Net_harness.quorum ~n:4 in
  let lines = (Net_harness.account cfg r).Net_harness.merged_trace in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "JSONL shape: %s" l)
        true
        (String.length l > 6 && String.sub l 0 5 = "{\"t\":"))
    lines;
  let times =
    List.map
      (fun l -> Scanf.sscanf l "{\"t\":%f" (fun t -> t))
      lines
  in
  Alcotest.(check bool) "times nondecreasing" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times));
  Alcotest.(check bool) "has quorum_commit" true
    (List.exists
       (fun l ->
         let re = {|"ev":"quorum_commit"|} in
         let rec find i =
           i + String.length re <= String.length l
           && (String.sub l i (String.length re) = re || find (i + 1))
         in
         find 0)
       lines);
  Alcotest.(check bool) "has latency samples" true
    (Tcp.quorum_latencies r ~quorum <> [])

let hello_frame ?(version = Wire.version) ~sender ~n ~protocol () =
  Wire.frame
    (Wire.W.to_string
       (fun w () ->
         Wire.W.u8 w version;
         Wire.W.u8 w 0x00;
         Wire.W.uvar w sender;
         Wire.W.uvar w n;
         Wire.W.bytes w protocol)
       ())

(* A rogue client connects to a validator and feeds it garbage while the
   cluster runs; the cluster must still commit, and the frames sent after
   a valid hello must be counted as decode errors. *)
let malformed_injection () =
  let kind = Protocol_kind.Commit_moonshot in
  let base_port = 28411 in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:5) with
      Tcp.base_port = Some base_port;
    }
  in
  let inject () =
    let rec connect tries =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
        fd
      with Unix.Unix_error _ when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.005;
        connect (tries - 1)
    in
    (* Client 1: a valid hello from "node 2", then well-framed garbage
       bodies — each must be skipped and counted, not crash the node. *)
    let fd = connect 200 in
    (try
       Wire.write_all fd
         (hello_frame ~sender:2 ~n:4 ~protocol:(Protocol_kind.name kind) ());
       Wire.write_all fd (Wire.frame "\x01\x7f\xde\xad\xbe\xef");
       Wire.write_all fd (Wire.frame "\x42\x42\x42")
     with Unix.Unix_error _ -> ());
    (* Client 2: raw garbage instead of a hello — dropped at the door. *)
    let fd2 = connect 200 in
    (try Wire.write_all fd2 "\xff\xff\xff\xff garbage" with Unix.Unix_error _ -> ());
    Thread.delay 0.2;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Unix.close fd2 with Unix.Unix_error _ -> ()
  in
  let injector = Thread.create inject () in
  let r = Net_harness.run kind cfg in
  Thread.join injector;
  (match Net_harness.check r ~target:5 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  let errors =
    Array.fold_left (fun acc nr -> acc + nr.Tcp.decode_errors) 0 r.Tcp.nodes
  in
  Alcotest.(check bool) "garbage frames counted" true (errors >= 1)

(* --- hello handshake rejection --------------------------------------------- *)

(* A validator that rejects a hello closes the connection without writing
   anything: from the rogue client's side that is a clean EOF (or a reset
   if our write raced the close). *)
let expect_closed ?(within = 5.) what fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO within;
  let buf = Bytes.create 1 in
  (match Unix.read fd buf 0 1 with
  | 0 -> ()
  | _ -> Alcotest.failf "%s: validator sent data on a rejected conn" what
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "%s: connection not closed" what);
  try Unix.close fd with Unix.Unix_error _ -> ()

let hello_rejects () =
  let kind = Protocol_kind.Commit_moonshot in
  let proto = Protocol_kind.name kind in
  let base_port = 28461 in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:10) with
      Tcp.base_port = Some base_port;
      (* Paced hops keep the run going while the hellos go in. *)
      link_delay_ms = 50.;
    }
  in
  let inject () =
    let rec connect tries =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
        fd
      with Unix.Unix_error _ when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.005;
        connect (tries - 1)
    in
    let try_hello ?within what frame =
      let fd = connect 400 in
      (try Wire.write_all fd frame with Unix.Unix_error _ -> ());
      expect_closed ?within what fd
    in
    (* A length prefix no hello needs is refused at once, not once the
       16 MiB it announces are in (or the run is over). *)
    try_hello ~within:0.3 "oversized first frame" "\x01\x00\x00\x00";
    try_hello "wrong protocol"
      (hello_frame ~sender:2 ~n:4 ~protocol:"bogus-protocol" ());
    try_hello "wrong cluster size" (hello_frame ~sender:2 ~n:5 ~protocol:proto ());
    try_hello "sender out of range"
      (hello_frame ~sender:9 ~n:4 ~protocol:proto ());
    (* Node 0's own id claimed by a peer: self-loops never dial out, so
       an inbound hello naming the listener itself is an impostor. *)
    try_hello "sender is self" (hello_frame ~sender:0 ~n:4 ~protocol:proto ());
    try_hello "stale version"
      (hello_frame ~version:0x01 ~sender:2 ~n:4 ~protocol:proto ())
  in
  (* A thread's exception does not reach [Thread.join]: carry it over. *)
  let failed = ref None in
  let injector =
    Thread.create (fun () -> try inject () with e -> failed := Some e) ()
  in
  let r = Net_harness.run kind cfg in
  Thread.join injector;
  Option.iter raise !failed;
  match Net_harness.check r ~target:10 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* A connector that never sends its hello (a peer killed mid-dial) must
   not stall the validator that accepted it: its connection idles in the
   watch list and the cluster still reaches its target. *)
let silent_connector () =
  let kind = Protocol_kind.Commit_moonshot in
  let base_port = 28511 in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:5) with
      Tcp.base_port = Some base_port;
      timeout_ms = 10_000.;
    }
  in
  let finished = Atomic.make false in
  let hold () =
    let rec connect tries =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
        Some fd
      with Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if tries = 0 then None
        else begin
          Thread.delay 0.005;
          connect (tries - 1)
        end
    in
    match connect 400 with
    | None -> ()
    | Some fd ->
        (* Silent until the run is over (bounded, so that a stalled
           validator is released and the test fails instead of hanging). *)
        let deadline = Unix.gettimeofday () +. 15. in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let holder = Thread.create hold () in
  let r = Net_harness.run kind cfg in
  Atomic.set finished true;
  Thread.join holder;
  match Net_harness.check r ~target:5 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* --- output commit: the WAL is on disk before the vote is on the wire ------ *)

(* Whether a Pipelined Moonshot WAL snapshot records the vote in [slot] of
   [view]: it is at that view with the slot taken, or at a later view. *)
let wal_records_vote blob ~view ~slot =
  match Codec.decode_wal blob with
  | Error _ -> false
  | Ok w -> (
      match Moonshot.Wal.load w with
      | None -> false
      | Some st ->
          st.Moonshot.Wal.cur_view > view
          || st.Moonshot.Wal.cur_view = view
             && if slot = 0 then st.Moonshot.Wal.voted_opt <> None
                else st.Moonshot.Wal.voted_main)

(* Pipelined Moonshot, with every vote checked at its receiver against the
   sender's WAL file: the file must already record the vote's view with
   that vote slot taken (or a later view).  Each executor iteration
   persists the WAL before it releases the iteration's frames, so no vote
   can overtake the snapshot that binds it.  Self-addressed votes are not
   checked: they are delivered inside the iteration that sends them. *)
module Output_commit = struct
  module P = Moonshot.Pipelined_node.Protocol

  let wal_dir = ref ""
  let checked = Atomic.make 0
  let violations = Atomic.make 0

  type msg = P.msg
  type wal = P.wal
  type node = { id : int; inner : P.node }

  let msg_size = P.msg_size
  let cpu_cost = P.cpu_cost
  let classify = P.classify
  let payload_bytes = P.payload_bytes
  let view_of = P.view_of
  let encode_msg = P.encode_msg
  let decode_msg = P.decode_msg
  let wal_create = P.wal_create
  let wal_encode = P.wal_encode
  let wal_decode = P.wal_decode

  let create ?equivocate ?wal env =
    { id = env.Env.id; inner = P.create ?equivocate ?wal env }

  let start nd = P.start nd.inner

  let durable ~src ~view ~slot =
    let file = Filename.concat !wal_dir (Printf.sprintf "node-%d.wal" src) in
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error _ -> false
    | blob -> wal_records_vote blob ~view ~slot

  let handle nd ~src m =
    (match P.vote_slot m with
    | Some (view, slot) when src <> nd.id ->
        Atomic.incr checked;
        if not (durable ~src ~view ~slot) then Atomic.incr violations
    | _ -> ());
    P.handle nd.inner ~src m

  let msg_digest = P.msg_digest
  let pp_msg = P.pp_msg
  let vote_slot = P.vote_slot
  let state_hash nd = P.state_hash nd.inner
  let current_view nd = P.current_view nd.inner
  let lock_view nd = P.lock_view nd.inner
  let wal_hash = P.wal_hash
  let wal_consistent nd = P.wal_consistent nd.inner
end

let output_commit () =
  let kind = Protocol_kind.Pipelined_moonshot in
  let dir = Filename.temp_file "moonshot-output-commit" "" in
  Sys.remove dir;
  Output_commit.wal_dir := dir;
  let cfg =
    { (Net_harness.config kind ~n:4 ~blocks:30) with Tcp.wal_dir = Some dir }
  in
  let r = Tcp.run (module Output_commit) cfg in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (match Net_harness.check r ~target:30 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  Alcotest.(check bool) "votes were checked" true
    (Atomic.get Output_commit.checked > 0);
  Alcotest.(check int) "votes that overtook their WAL snapshot" 0
    (Atomic.get Output_commit.violations)

(* --- executor: the loop body without sockets ------------------------------ *)

module Pm = Moonshot.Pipelined_node.Protocol
module Executor = Bft_net.Executor

(* Pipelined Moonshot that counts its decodes and its handler runs, per
   sender, and keeps the last message handled.  [view_offset] shifts the
   view its host sees, which is how a test moves a node onto its crash
   anchor without driving a view change. *)
module Counted = struct
  include Pm

  let decoded = ref 0
  let handled = ref 0
  let handled_from = Array.make 4 0
  let last = ref None
  let view_offset = ref 0

  let decode_msg body =
    incr decoded;
    Pm.decode_msg body

  let handle nd ~src m =
    incr handled;
    handled_from.(src) <- handled_from.(src) + 1;
    last := Some m;
    Pm.handle nd ~src m

  let current_view nd = Pm.current_view nd + !view_offset
end

module Ex = Executor.Make (Counted)

(* What left an executor: a frame body for [dst] with its trailer length, a
   release, a snapshot. *)
type outbound = Sent of int * int * string | Released | Persisted of string

(* Node [id] of four, round-robin leaders from view 1 (node 1 leads it),
   view timers at 1 s, proposing [payload_bytes]-byte payloads, on a clock
   that only the test moves.  Returns the executor, the clock and a reader
   of everything it sent, in order. *)
let executor ?faults ?(payload_bytes = 0) ~id () =
  let clock = ref 0. and out = ref [] in
  let record o = out := o :: !out in
  let policy =
    {
      Bft_net.Node_host.n = 4;
      delta = 1000.;
      leader_of = (fun v -> v mod 4);
      payload_bytes;
      ingest = None;
      trace = None;
      faults;
    }
  in
  let sink =
    {
      Executor.send =
        (fun ~dst ~src_view:_ ~payload body -> record (Sent (dst, payload, body)));
      release = (fun () -> record Released);
    }
  in
  let ex =
    Ex.create policy ~id ~incarnation:0 ~wal:None ~target_blocks:100
      ~now:(fun () -> !clock)
      sink
      ~persist:(Some (fun s -> record (Persisted s)))
      ~on_target:ignore ~on_recover:ignore
  in
  (ex, clock, fun () -> List.rev !out)

let no_traffic =
  {
    Bft_net.Conn_manager.messages_sent = 0;
    bytes_sent = 0;
    bytes_heal = 0;
    dropped = Array.make 4 0;
    reconnects = 0;
  }

(* The view-1 proposal node 1 sends to node 2 when it starts, as its
   trailer length and body. *)
let view1_proposal ?payload_bytes () =
  let leader, _, out = executor ?payload_bytes ~id:1 () in
  Ex.start leader;
  match
    List.find_map
      (function
        | Sent (2, payload, body) -> (
            match Pm.decode_msg body with
            | Ok m when Pm.classify m = `Proposal -> Some (payload, body)
            | _ -> None)
        | _ -> None)
      (out ())
  with
  | Some frame -> frame
  | None -> Alcotest.fail "the leader sent node 2 no proposal"

(* Every vote frame must be recorded by a snapshot handed to [persist]
   after it was sent and before the release that hands it on. *)
let check_votes_persisted out =
  let votes = ref 0 and pending = ref [] in
  List.iter
    (function
      | Sent (_, _, body) -> (
          match Result.map Pm.vote_slot (Pm.decode_msg body) with
          | Ok (Some (view, slot)) ->
              incr votes;
              pending := (view, slot, ref false) :: !pending
          | Ok None -> ()
          | Error e -> Alcotest.fail e)
      | Persisted s ->
          List.iter
            (fun (view, slot, durable) ->
              if wal_records_vote s ~view ~slot then durable := true)
            !pending
      | Released ->
          List.iter
            (fun (view, _, durable) ->
              Alcotest.(check bool)
                (Printf.sprintf "view-%d vote persisted before release" view)
                true !durable)
            !pending;
          pending := [])
    out;
  Alcotest.(check bool) "votes were sent" true (!votes > 0)

let executor_output_commit () =
  (* The leader votes for its own proposal while starting; node 2 votes
     when the proposal arrives. *)
  let leader, _, out = executor ~id:1 () in
  Ex.start leader;
  check_votes_persisted (out ());
  let payload, proposal = view1_proposal () in
  let ex, _, out = executor ~id:2 () in
  Ex.start ex;
  Ex.receive ex ~src:1 ~payload proposal;
  Ex.step ex;
  check_votes_persisted (out ())

let executor_timer_order () =
  let ex, clock, _ = executor ~id:2 () in
  Ex.start ex;
  let fired = ref [] in
  List.iter
    (fun d ->
      let (_ : unit -> unit) =
        Ex.set_timer ex d (fun () -> fired := d :: !fired)
      in
      ())
    [ 30.; 10.; 20. ];
  Alcotest.(check (float 1e-9)) "wait for the earliest" 0.01 (Ex.wait_s ex);
  clock := 50.;
  Ex.step ex;
  Alcotest.(check (list (float 0.))) "deadline order" [ 10.; 20.; 30. ]
    (List.rev !fired)

let executor_cancel_in_batch () =
  let ex, clock, _ = executor ~id:2 () in
  Ex.start ex;
  let cancel_later = ref ignore and fired = ref false in
  let (_ : unit -> unit) = Ex.set_timer ex 10. (fun () -> !cancel_later ()) in
  cancel_later := Ex.set_timer ex 20. (fun () -> fired := true);
  clock := 50.;
  Ex.step ex;
  Alcotest.(check bool) "cancelled by an earlier timer, not fired" false !fired

let executor_malformed () =
  let ex, _, out = executor ~id:2 () in
  Ex.start ex;
  let handled = !Counted.handled and sent = List.length (out ()) in
  Ex.receive ex ~src:3 ~payload:0 "\x02\x7f\xde\xad";
  Ex.step ex;
  Alcotest.(check int) "no handler ran" handled !Counted.handled;
  Alcotest.(check bool) "nothing persisted" false
    (List.exists
       (function Persisted _ -> true | _ -> false)
       (List.filteri (fun i _ -> i >= sent) (out ())));
  let r, crash_wal = Ex.finish ex no_traffic in
  Alcotest.(check (array int)) "counted against peer 3" [| 0; 0; 0; 1 |]
    r.Executor.malformed_by_peer;
  Alcotest.(check int) "decode errors" 1 r.Executor.decode_errors;
  Alcotest.(check bool) "no crash snapshot" true (crash_wal = None)

let executor_crash_verdict () =
  let payload, proposal = view1_proposal () in
  let faults =
    match Bft_faults.Fault_schedule.of_string "crash@5:2" with
    | Ok s -> Bft_faults.Logical.of_schedule_exn ~n:4 s
    | Error e -> Alcotest.fail e
  in
  let ex, clock, out = executor ~faults ~id:2 () in
  Ex.start ex;
  Alcotest.(check bool) "running below the anchor" true (Ex.running ex);
  let fired = ref false in
  let (_ : unit -> unit) = Ex.set_timer ex 10. (fun () -> fired := true) in
  clock := 50.;
  let handled = !Counted.handled in
  (* The proposal's handler runs; its fault step sees view 11 >= 5.  Its
     vote to itself, the second copy and the due timer must not run. *)
  Counted.view_offset := 10;
  Ex.receive ex ~src:1 ~payload proposal;
  Ex.receive ex ~src:1 ~payload proposal;
  Ex.step ex;
  Counted.view_offset := 0;
  Alcotest.(check int) "only the crashing handler ran" (handled + 1)
    !Counted.handled;
  Alcotest.(check bool) "due timer did not fire" false !fired;
  Alcotest.(check bool) "crashed" true (Ex.crashed ex && not (Ex.running ex));
  check_votes_persisted (out ());
  let _, crash_wal = Ex.finish ex no_traffic in
  Alcotest.(check bool) "crash snapshot" true (crash_wal <> None)

(* Frames from peer 1 as the select shell hands them on: read by a
   [Frame_reader], then received by [ex]. *)
let to_executor ex payload body = Ex.receive ex ~src:1 ~payload body

(* A frame whose trailer is not its proposal's payload is a malformed
   body: counted against its sender, no handler runs, and the stream goes
   on, so the proposal's well-formed frame behind it is handled. *)
let executor_trailer_mismatch () =
  let payload, proposal = view1_proposal ~payload_bytes:2048 () in
  let ex, _, _ = executor ~id:2 () in
  Ex.start ex;
  let r = Reader.create () and rd, wr = Unix.pipe () in
  Unix.set_nonblock rd;
  let read_all () =
    let rec go () =
      match Reader.read r rd (to_executor ex) with
      | `Open -> go ()
      | st -> Alcotest.failf "stream ended: %s" (frame_error st)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    in
    go ()
  in
  let handled = !Counted.handled in
  List.iter
    (fun p ->
      Wire.write_all wr (Wire.frame ~payload:p proposal);
      read_all ())
    [ payload - 1; payload + 1; 0 ];
  Alcotest.(check int) "no handler ran" handled !Counted.handled;
  Wire.write_all wr (Wire.frame ~payload proposal);
  read_all ();
  Alcotest.(check bool) "the well-formed frame was handled" true
    (!Counted.handled > handled);
  Unix.close wr;
  Alcotest.(check string) "then a clean close" "closed"
    (frame_error (Reader.read r rd (to_executor ex)));
  Unix.close rd;
  let res, _ = Ex.finish ex no_traffic in
  Alcotest.(check (array int)) "counted against peer 1" [| 0; 3; 0; 0 |]
    res.Executor.malformed_by_peer

(* Receiving a proposal, from its frame's first byte to the end of its
   handler, allocates the same for a 0 B, a 2 KiB and a 1 MiB payload,
   and the reader's buffer stays at 4 KiB: the trailer is skipped where
   it lands, never copied.  While the payload was padding inside the body,
   the reader grew its buffer to the frame and copied the body out, and
   the decoder read the padding: about 2 MiB for the 1 MiB payload. *)
let executor_receive_alloc () =
  let receive payload_bytes =
    let payload, proposal = view1_proposal ~payload_bytes () in
    let file = Filename.temp_file "moonshot-frame" "" in
    Out_channel.with_open_bin file (fun oc ->
        Out_channel.output_string oc (Wire.frame ~payload proposal));
    let ex, _, _ = executor ~id:2 () in
    Ex.start ex;
    let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
    let r = Reader.create () and deliver = to_executor ex in
    let handled = !Counted.handled and status = ref `Open in
    let bytes =
      Bft_obs.Alloc.measure (fun () ->
          while !status = `Open do
            status := Reader.read r fd deliver
          done)
    in
    Unix.close fd;
    Sys.remove file;
    Alcotest.(check string) "whole frame read" "closed" (frame_error !status);
    Alcotest.(check bool) "proposal handled" true (!Counted.handled > handled);
    Alcotest.(check int) "reader buffer" 4096 (Reader.capacity r);
    bytes
  in
  ignore (receive 0);
  let base = receive 0 in
  List.iter
    (fun size ->
      let bytes = receive size in
      Alcotest.(check bool)
        (Printf.sprintf "%d B payload: %.0f B against %.0f B" size bytes base)
        true
        (Float.abs (bytes -. base) <= 64.))
    [ 2048; 1 lsl 20 ]

(* The vote node 2 multicasts for the view-1 proposal.  Votes carry no
   signature, so every voter's body is this one, byte for byte. *)
let view1_vote () =
  let payload, proposal = view1_proposal () in
  let ex, _, out = executor ~id:2 () in
  Ex.start ex;
  Ex.receive ex ~src:1 ~payload proposal;
  match
    List.find_map
      (function
        | Sent (_, _, body) -> (
            match Pm.decode_msg body with
            | Ok m when Pm.classify m = `Vote -> Some body
            | _ -> None)
        | _ -> None)
      (out ())
  with
  | Some body -> body
  | None -> Alcotest.fail "node 2 sent no vote"

(* A vote body for a view-[v] block on genesis. *)
let vote_body v =
  let block =
    Block.create ~parent:Block.genesis ~view:v ~proposer:(v mod 4)
      ~payload:(Payload.empty ~id:v)
  in
  Pm.encode_msg (Message.Vote { kind = Vote_kind.Normal; block })

(* A vote body other than [body] in [body]'s memo slot: the executor
   indexes its 64 slots by [Hashtbl.hash body land 63]. *)
let same_slot body =
  let slot b = Hashtbl.hash b land 63 in
  let rec find v =
    let b = vote_body v in
    if slot b = slot body && b <> body then b else find (v + 1)
  in
  find 1

let sent_cert_gossip ~view out =
  List.exists
    (function
      | Sent (_, _, body) -> (
          match Pm.decode_msg body with
          | Ok (Message.Cert_gossip c) -> c.Cert.view = view
          | _ -> false)
      | _ -> false)
    out

(* A vote multicast by three peers reaches a node as three identical
   bodies: one decode, three handler runs, each from its own sender, and
   a quorum.  What depends on the frame stays per frame: a remembered body
   under a wrong trailer is malformed and counted against its sender, and
   an undecodable body counts once per frame.  Two bodies that share a
   memo slot each decode to their own message.  A remembered body costs
   no decode: a vote received again from the same peer runs the same
   handler either way, and with its body in the memo allocates at least
   150 B less than after a body in the same slot pushed it out: 16 B,
   the [Some] that [Counted] keeps, against 208 B when this was written,
   and 208 B both times without the memo. *)
let executor_decode_once () =
  let vote = view1_vote () in
  let ex, _, out = executor ~id:0 () in
  Ex.start ex;
  let sent = List.length (out ()) in
  let decoded = !Counted.decoded and from = Array.copy Counted.handled_from in
  List.iter (fun src -> Ex.receive ex ~src ~payload:0 vote) [ 1; 2; 3 ];
  Alcotest.(check int) "one decode" (decoded + 1) !Counted.decoded;
  List.iter
    (fun src ->
      Alcotest.(check int)
        (Printf.sprintf "one handler run from %d" src)
        (from.(src) + 1) Counted.handled_from.(src))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "the quorum's certificate is gossiped" true
    (sent_cert_gossip ~view:1 (List.filteri (fun i _ -> i >= sent) (out ())));
  let handled = !Counted.handled in
  Ex.receive ex ~src:3 ~payload:5 vote;
  Alcotest.(check int) "wrong trailer: no handler ran" handled
    !Counted.handled;
  let garbage = "\x02\x7f\xde\xad" in
  Ex.receive ex ~src:1 ~payload:0 garbage;
  Ex.receive ex ~src:1 ~payload:0 garbage;
  Alcotest.(check int) "the remembered vote and garbage decode once"
    (decoded + 2) !Counted.decoded;
  let other = same_slot vote in
  List.iter
    (fun body ->
      Ex.receive ex ~src:2 ~payload:0 body;
      match (!Counted.last, Pm.decode_msg body) with
      | Some m, Ok expected ->
          Alcotest.(check bool) "a shared slot: each body its own message"
            true (m = expected)
      | _ -> Alcotest.fail "no message handled")
    [ other; vote; other; vote ];
  let receive () = Ex.receive ex ~src:1 ~payload:0 vote in
  Ex.receive ex ~src:1 ~payload:0 other;
  let miss = Bft_obs.Alloc.measure receive in
  let hit = Bft_obs.Alloc.measure receive in
  Alcotest.(check bool)
    (Printf.sprintf "remembered: %.0f B against %.0f B" hit miss)
    true
    (miss -. hit >= 150.);
  let r, _ = Ex.finish ex no_traffic in
  Alcotest.(check (array int)) "malformed per peer" [| 0; 2; 0; 1 |]
    r.Executor.malformed_by_peer;
  Alcotest.(check int) "decode errors" 3 r.Executor.decode_errors;
  Alcotest.(check int) "frames received" 13 r.Executor.frames_received

(* --- chaos: fault injection on live sockets -------------------------------- *)

(* One wall-clock crash/recover cycle while the cluster runs.  The dead
   incarnation's sockets must go down (peers see drops, then reconnect),
   the coordinator must rebuild the node from its WAL snapshot, and the
   cluster must still reach the target with per-height agreement. *)
let wall_chaos_result mode =
  let kind = Protocol_kind.Commit_moonshot in
  let faults =
    match Bft_faults.Fault_schedule.of_string "crash@150:2;recover@700:2" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:40) with
      Tcp.mode;
      delta_ms = 300.;
      link_delay_ms = 8.;
      faults;
    }
  in
  Net_harness.run kind cfg

let assert_recovered (r : Tcp.result) ~node =
  (match Net_harness.check r ~target:40 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  Alcotest.(check bool) "completed cooperatively" true (r.Tcp.outcome = Tcp.Completed);
  Alcotest.(check bool)
    "victim restarted" true
    (r.Tcp.nodes.(node).Tcp.restarts >= 1);
  let kinds = List.map (fun fe -> fe.Tcp.fe_kind) r.Tcp.fault_events in
  Alcotest.(check bool) "crash recorded" true
    (List.mem Bft_obs.Trace.Crash kinds);
  Alcotest.(check bool) "recover recorded" true
    (List.mem Bft_obs.Trace.Recover kinds);
  let report = Net_harness.net_liveness r ~delta:300. in
  (match report.Bft_obs.Liveness.recoveries with
  | [ rec_ ] ->
      Alcotest.(check int) "recovered node" node rec_.Bft_obs.Liveness.node;
      Alcotest.(check bool) "caught up" true
        (rec_.Bft_obs.Liveness.caught_up_at_ms <> None)
  | rs -> Alcotest.failf "expected 1 recovery in report, got %d" (List.length rs));
  Alcotest.(check bool) "bounded post-disruption commit gap" true
    (report.Bft_obs.Liveness.max_quorum_gap_ms
    <= report.Bft_obs.Liveness.bound_ms)

let threads_crash_recover () =
  assert_recovered (wall_chaos_result Tcp.Threads) ~node:2

(* Process mode: the victim really dies ([SIGKILL]) and is re-forked; its
   new incarnation rebuilds from the WAL file and catches up via sync. *)
let process_crash_recover () =
  assert_recovered (wall_chaos_result Tcp.Processes) ~node:2

(* --- accounting pass on synthetic results ----------------------------------- *)

(* A chain of [k] blocks above genesis, block [h] proposed for view [h];
   [chain.(h - 1)] is the block at height [h]. *)
let chain_of ?(payload = fun _ -> Payload.make ~id:0 ~size_bytes:0) k =
  let blocks = Array.make k Block.genesis in
  for h = 1 to k do
    let parent = if h = 1 then Block.genesis else blocks.(h - 2) in
    blocks.(h - 1) <-
      Block.create ~parent ~view:h ~proposer:(h mod 4) ~payload:(payload h)
  done;
  blocks

let commit ~t b = { Tcp.c_block = b; c_height = b.Block.height; c_time_ms = t }
let proposal ~t b = { Tcp.p_block = b; p_height = b.Block.height; p_time_ms = t }

let node ?(restarts = 0) ?(proposals = []) id commits =
  {
    Tcp.id;
    commits;
    proposals;
    trace_events = [];
    decode_errors = 0;
    frames_received = 0;
    messages_sent = 0;
    bytes_sent = 0;
    bytes_heal = 0;
    reconnects = 0;
    restarts;
    malformed_by_peer = [||];
    dropped_by_peer = [||];
  }

let result ?(fault_events = []) ?(wall_ms = 100.) nodes =
  {
    Tcp.nodes = Array.of_list nodes;
    wall_ms;
    reached_target = true;
    outcome = Tcp.Completed;
    fault_events;
  }

let crash_event node =
  { Tcp.fe_time_ms = 1.; fe_node = node; fe_kind = Bft_obs.Trace.Crash }

(* Four nodes committing heights 1-3 of one chain.  With [gap], node 1
   commits heights 1, 3, 4; with [conflict], node 2 commits a fork of
   height 2. *)
let synthetic ?(restarts = 0) ?fault_events ?(gap = false) ?(conflict = false)
    () =
  let blocks = chain_of 4 in
  let fork =
    Block.create ~parent:blocks.(0) ~view:9 ~proposer:2
      ~payload:(Payload.make ~id:0 ~size_bytes:0)
  in
  let commits ?(bad = false) hs =
    List.map
      (fun h ->
        commit ~t:(float_of_int h) (if bad && h = 2 then fork else blocks.(h - 1)))
      hs
  in
  result ?fault_events
    [
      node 0 (commits [ 1; 2; 3 ]);
      node ~restarts 1 (commits (if gap then [ 1; 3; 4 ] else [ 1; 2; 3 ]));
      node 2 (commits ~bad:conflict [ 1; 2; 3 ]);
      node 3 (commits [ 1; 2; 3 ]);
    ]

let expect_check what want r =
  match (Net_harness.check r ~target:3, want) with
  | Ok (), true | Error _, false -> ()
  | Ok (), false -> Alcotest.failf "%s: check passed" what
  | Error e, true -> Alcotest.failf "%s: %s" what e

let check_dense () = expect_check "dense" true (synthetic ())
let check_gap_no_crash () = expect_check "gap" false (synthetic ~gap:true ())

let check_gap_with_crash () =
  expect_check "gap after crash event" true
    (synthetic ~gap:true ~fault_events:[ crash_event 1 ] ());
  expect_check "gap after restart" true (synthetic ~gap:true ~restarts:1 ())

let check_conflict () =
  expect_check "conflict" false (synthetic ~conflict:true ());
  expect_check "conflict after crash" false
    (synthetic ~conflict:true ~fault_events:[ crash_event 1 ] ())

(* The accounting pass of a traced, fault-free, client-free n = 4 run. *)
let account r =
  Net_harness.account
    {
      (Net_harness.config Protocol_kind.Commit_moonshot ~n:4 ~blocks:3) with
      Tcp.trace = true;
    }
    r

(* Block A: earliest commits 5, 3, 4, 20 (node 2 re-commits at 9 after a
   recovery) -> the 3rd smallest is node 0's, at 5.  Block B: nodes 0 and
   2 only, node 2 twice -> two distinct nodes, no quorum. *)
let quorum_commits_earliest () =
  let blocks = chain_of 2 in
  let a = blocks.(0) and b = blocks.(1) in
  let r =
    result
      [
        node 0 [ commit ~t:5. a; commit ~t:6. b ];
        node ~proposals:[ proposal ~t:1. a ] 1 [ commit ~t:3. a ];
        node ~restarts:1 ~proposals:[ proposal ~t:2. b ] 2
          [ commit ~t:4. a; commit ~t:7. b; commit ~t:9. a; commit ~t:10. b ];
        node 3 [ commit ~t:20. a ];
      ]
  in
  let acc = account r in
  let m = acc.Net_harness.metrics in
  Alcotest.(check int) "one block committed" 1 m.Bft_obs.Metrics.committed_blocks;
  Alcotest.(check (list (pair int (option (float 0.)))))
    "quorum times" [ (1, Some 5.); (2, None) ]
    (List.map
       (fun (x : Bft_obs.Metrics.record) ->
         (x.block.Block.height, x.quorum_commit_ms))
       m.Bft_obs.Metrics.records);
  let quorum_events =
    List.filter_map
      (fun l ->
        Scanf.sscanf_opt l "{\"t\":%f,\"node\":%d,\"ev\":\"quorum_commit\""
          (fun t node -> (t, node)))
      acc.Net_harness.merged_trace
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "one quorum commit, at 5 through node 0" [ (5., 0) ] quorum_events

(* Process mode: block 2's proposer crashed and its proposal record died
   with it.  Block 2 still counts, with its payload bytes, but gives no
   latency sample; [Tcp.quorum_latencies] reads the same records. *)
let commit_without_proposal () =
  let blocks = chain_of ~payload:(fun h -> Payload.make ~id:h ~size_bytes:100) 2 in
  let c h t = commit ~t blocks.(h - 1) in
  let r =
    result
      [
        node ~proposals:[ proposal ~t:1. blocks.(0) ] 0 [ c 1 10.; c 2 20. ];
        node 1 [ c 1 11.; c 2 21. ];
        node 2 [ c 1 12.; c 2 22. ];
        node 3 [];
      ]
  in
  let m = (account r).Net_harness.metrics in
  Alcotest.(check int) "both committed" 2 m.Bft_obs.Metrics.committed_blocks;
  Alcotest.(check (list (float 0.))) "one sample" [ 11. ] m.Bft_obs.Metrics.latencies_ms;
  Alcotest.(check (float 0.))
    "bytes of both" 200. m.Bft_obs.Metrics.payload_bytes_committed;
  Alcotest.(check (list (pair int (float 0.))))
    "quorum_latencies" [ (1, 11.) ]
    (Tcp.quorum_latencies r ~quorum:3)

(* [Tcp.quorum_latencies] is the accounting pass's records, by height:
   pinned on a block proposed twice (created at the earlier proposal) and
   one without a quorum. *)
let quorum_latencies_from_pass () =
  let blocks = chain_of 4 in
  let c h t = commit ~t blocks.(h - 1) in
  let p h t = proposal ~t blocks.(h - 1) in
  let r =
    result
      [
        node ~proposals:[ p 1 1.; p 3 5. ] 0 [ c 1 4.; c 2 9.; c 3 12.; c 4 30. ];
        node ~proposals:[ p 2 3.; p 3 4. ] 1 [ c 1 6.; c 2 8.; c 3 11. ];
        node ~proposals:[ p 4 13. ] 2 [ c 1 5.; c 2 10.; c 3 20. ];
        node 3 [];
      ]
  in
  let from_records =
    List.filter_map
      (fun (x : Bft_obs.Metrics.record) ->
        Option.map
          (fun q -> (x.block.Block.height, q -. x.created_ms))
          x.quorum_commit_ms)
      (account r).Net_harness.metrics.Bft_obs.Metrics.records
    |> List.sort compare
  in
  Alcotest.(check (list (pair int (float 0.))))
    "by hand" [ (1, 5.); (2, 7.); (3, 16.) ] from_records;
  Alcotest.(check (list (pair int (float 0.))))
    "quorum_latencies" from_records (Tcp.quorum_latencies r ~quorum:3);
  Alcotest.check_raises "another quorum"
    (Invalid_argument
       "Tcp.quorum_latencies: quorum is not Metrics.latency_quorum")
    (fun () -> ignore (Tcp.quorum_latencies r ~quorum:2))

(* n = 4, quorum 3, Delta 10 (bound 200 ms).  Node 2 crashes at 15 and
   recovers at 50 (GST), then re-commits h1 and catches up.
   Quorum commits: h1 at 12 (10, 11, 12), h2 at 40 (20, 25, 40; node 2's
   66 is 4th), h3 at 62 (60, 61, 62).  At the recovery the quorum height
   is 2, which node 2 reaches at 66.  The only quorum commit after GST
   is h3, 22 ms after h2.  The run ends at 100 < 50 + 200, so no window
   check runs. *)
let net_liveness_by_hand () =
  let fe t kind = { Tcp.fe_time_ms = t; fe_node = 2; fe_kind = kind } in
  let blocks = chain_of 3 in
  let c h t = commit ~t blocks.(h - 1) in
  let r =
    result
      ~fault_events:
        [ fe 15. Bft_obs.Trace.Crash; fe 50. Bft_obs.Trace.Recover ]
      [
        node 0 [ c 1 10.; c 2 20.; c 3 60. ];
        node 1 [ c 1 12.; c 2 25.; c 3 61. ];
        node ~restarts:1 2 [ c 1 11.; c 1 65.; c 2 66.; c 3 70. ];
        node 3 [ c 1 30.; c 2 40.; c 3 62. ];
      ]
  in
  let rep = Net_harness.net_liveness r ~delta:10. in
  Alcotest.(check (float 0.))
    "max quorum gap" 22. rep.Bft_obs.Liveness.max_quorum_gap_ms;
  Alcotest.(check int) "checks" 0 rep.Bft_obs.Liveness.checks_passed;
  match rep.Bft_obs.Liveness.recoveries with
  | [ rec_ ] ->
      Alcotest.(check int) "node" 2 rec_.Bft_obs.Liveness.node;
      Alcotest.(check int)
        "target height" 2 rec_.Bft_obs.Liveness.target_height;
      Alcotest.(check (option (float 0.))) "caught up" (Some 66.)
        rec_.Bft_obs.Liveness.caught_up_at_ms
  | rs -> Alcotest.failf "expected 1 recovery, got %d" (List.length rs)

(* Views clock, 2 arrivals per view, Delta 10: arrival slots are 0, 1, 2,
   2, so submit times are 0, 10, 20, 20 ms.  Block 1 carries arrivals
   0-1 and quorum-commits at 25 (20, 22, 25); block 2 carries 2-3 and
   quorum-commits at 47 (45, 46, 47).  Latencies: 25, 15, 27, 27. *)
let client_stats_by_hand () =
  let spec =
    {
      Bft_mempool.Spec.default with
      Bft_mempool.Spec.clients = 16;
      clock = Bft_mempool.Spec.Views;
      per_view = 2;
      lanes = 1;
    }
  in
  let blocks =
    chain_of
      ~payload:(fun h ->
        Payload.batch ~cursor:(2 * (h - 1)) ~watermark:(2 * h) ~count:2)
      2
  in
  let c h t = commit ~t blocks.(h - 1) in
  let r =
    result
      [
        node 0 [ c 1 20.; c 2 47. ];
        node 1 [ c 1 25.; c 2 45. ];
        node 2 [ c 1 22.; c 2 50. ];
        node 3 [ c 1 40.; c 2 46. ];
      ]
  in
  let s = Net_harness.client_stats r ~spec ~view_ms:10. in
  Alcotest.(check int) "submitted" 4 s.Bft_mempool.Ingest.submitted;
  Alcotest.(check int) "committed" 4 s.Bft_mempool.Ingest.committed;
  Alcotest.(check int) "batches" 2 s.Bft_mempool.Ingest.batches;
  Alcotest.(check int) "samples" 4 s.Bft_mempool.Ingest.lat.samples;
  Alcotest.(check (float 1e-9))
    "mean latency" 23.5 s.Bft_mempool.Ingest.lat.mean_ms;
  Alcotest.(check (float 0.)) "max latency" 27. s.Bft_mempool.Ingest.lat.max_ms

(* --- substrate cross-validation -------------------------------------------- *)

(* --- node host fault step ------------------------------------------------------ *)

(* One row per check: node [id] in incarnation [inc] under [sched] (view
   anchors, n = 7) sees [views] after successive events and must get back
   [want], one (crash, recover) verdict per event. *)
let fault_step_table =
  let no = (false, []) and crash = (true, []) in
  let two = "crash@3:2;crash@4:3;recover@9:2;recover@10:3" in
  [
    ("crash once at its anchor", two, 2, 0, [ 1; 2; 3; 4; 9 ], [ no; no; crash; no; no ]);
    ("crash when a view jumps past it", two, 3, 0, [ 1; 7; 8 ], [ no; crash; no ]);
    ("no crash in a later incarnation", two, 2, 1, [ 1; 3; 5 ], [ no; no; no ]);
    ( "observer orders each recovery once", two, 0, 0, [ 5; 9; 9; 10; 11 ],
      [ no; (false, [ 2 ]); no; (false, [ 3 ]); no ] );
    ("observer orders two in one step", two, 0, 0, [ 8; 12; 13 ], [ no; (false, [ 2; 3 ]); no ]);
    ("non-observer orders none", two, 1, 0, [ 9; 10; 20 ], [ no; no; no ]);
    ("empty schedule does nothing", "", 0, 0, [ 1; 5; 100 ], [ no; no; no ]);
  ]

let fault_step_run sched id inc views want () =
  let module Fs = Bft_net.Node_host.Fault_step in
  let fs =
    match Bft_faults.Fault_schedule.of_string sched with
    | Ok s -> Fs.create (Bft_faults.Logical.of_schedule_exn ~n:7 s) ~id ~incarnation:inc
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (pair bool (list int))))
    "verdicts" want
    (List.map
       (fun view ->
         let v = Fs.step fs ~view in
         (v.Bft_net.Node_host.crash, v.recover))
       views)

(* One table, one runner: each scenario runs on the simulator, a
   threads-mode cluster and — when the scenario crashes a node — a
   process-mode cluster, which must all commit the same (height, view,
   hash) chain.  Fault-free and client runs compare 5 blocks; chaos runs
   compare up to 8 blocks past the drawn schedule's last anchor. *)
let crossval_table =
  let every scenario =
    List.map (fun k -> (Protocol_kind.name k, k, scenario)) Protocol_kind.all
  in
  [
    ( "crossval",
      every (Net_harness.Fault_free { payload_bytes = 0 })
      @ [
          ( "with payload",
            Protocol_kind.Commit_moonshot,
            Net_harness.Fault_free { payload_bytes = 2048 } );
        ] );
    ("crossval-clients", every (Net_harness.Clients Net_harness.views_clients));
    ("crossval-chaos", every (Net_harness.Chaos { seed = 7 }));
  ]

let crossval_run kind scenario () =
  let cv = Net_harness.crossval ~n:4 ~protocol:kind ~blocks:5 scenario in
  let name (leg : Net_harness.leg) = Net_harness.substrate_name leg.substrate in
  if not cv.agree then
    Alcotest.failf "chains disagree under [%s] (%d blocks): %s"
      (Bft_faults.Fault_schedule.to_string cv.schedule)
      cv.blocks
      (String.concat " | "
         (List.map
            (fun (leg : Net_harness.leg) ->
              name leg ^ " "
              ^ String.concat ","
                  (List.map
                     (fun (c : Net_harness.commit_id) ->
                       Printf.sprintf "%d@%d" c.height c.view)
                     leg.chain))
            cv.legs));
  let legs, prefix =
    match scenario with
    | Net_harness.Chaos _ ->
        ( [ "sim"; "threads"; "procs" ],
          Bft_faults.Logical.(last_anchor (of_schedule_exn ~n:4 cv.schedule))
          + 8 )
    | Net_harness.Fault_free _ | Net_harness.Clients _ -> ([ "sim"; "threads" ], 5)
  in
  Alcotest.(check (list string)) "legs" legs (List.map name cv.legs);
  Alcotest.(check int) "prefix" prefix cv.blocks;
  List.iter
    (fun (leg : Net_harness.leg) ->
      (* Under chaos, every socket leg saw the victim catch up. *)
      (match (scenario, leg.substrate, leg.liveness) with
      | Net_harness.Chaos _, Net_harness.Net _, Some rep -> (
          match rep.Bft_obs.Liveness.recoveries with
          | [ rec_ ] ->
              Alcotest.(check bool) "caught up after recovery" true
                (rec_.Bft_obs.Liveness.caught_up_at_ms <> None)
          | rs -> Alcotest.failf "expected 1 recovery, got %d" (List.length rs))
      | Net_harness.Chaos _, Net_harness.Net _, None ->
          Alcotest.fail "socket leg without a liveness report"
      | _ -> ());
      (* Client runs: every replayer saw real traffic and lost nothing. *)
      match (scenario, leg.client_summary) with
      | Net_harness.Clients _, Some s ->
          Alcotest.(check bool) "commands flowed" true (s.committed > 0);
          Alcotest.(check int) "conservation" s.submitted
            (s.rejected + s.committed + s.pending + s.backlogged);
          (* A socket leg is accounted over the compared prefix only, one
             batch per block, however far the cluster overshot. *)
          if leg.substrate <> Net_harness.Sim then
            Alcotest.(check int) "batches in the compared prefix" cv.blocks
              s.batches
      | Net_harness.Clients _, None -> Alcotest.fail "leg without a client summary"
      | _ -> ())
    cv.legs

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    ([
      ( "codec",
        q
          [
            prop_roundtrip_moonshot;
            prop_roundtrip_jolteon;
            prop_truncation_moonshot;
            prop_truncation_jolteon;
            prop_garbage_never_raises;
            prop_uvar_roundtrip;
            prop_svar_roundtrip;
          ] );
      ( "vectors",
        [
          Alcotest.test_case "vote (pinned)" `Quick pinned_vote_vector;
          Alcotest.test_case "timeout (pinned)" `Quick pinned_timeout_vector;
          Alcotest.test_case "jolteon vote (pinned)" `Quick
            pinned_jolteon_vote_vector;
          Alcotest.test_case "proposal with trailer (pinned)" `Quick
            pinned_proposal_vector;
          Alcotest.test_case "bad version" `Quick bad_version_rejected;
          Alcotest.test_case "unknown tag" `Quick unknown_tag_rejected;
          Alcotest.test_case "trailing bytes" `Quick trailing_rejected;
          Alcotest.test_case "bad proposer" `Quick negative_height_rejected;
          Alcotest.test_case "WAL snapshot (pinned)" `Quick pinned_wal_snapshot;
        ] );
      ( "frames",
        q [ prop_reader_matches_read_frame ]
        @ [
            Alcotest.test_case "bad length prefix" `Quick
              reader_rejects_bad_length;
            Alcotest.test_case "EOF" `Quick reader_eof;
            Alcotest.test_case "sender frames bodies" `Quick sender_frames;
            Alcotest.test_case "held frame stays unwritten" `Quick
              held_frame_unwritten;
            Alcotest.test_case "stalled peer" `Quick stalled_peer;
            Alcotest.test_case "drain waits out a delay" `Quick
              drain_waits_out_delay;
            Alcotest.test_case "dial never waits" `Quick dial_never_waits;
            Alcotest.test_case "broken connection drops" `Quick
              broken_connection_drops;
            Alcotest.test_case "hello-sized limit" `Quick reader_limit;
            Alcotest.test_case "bad trailer length" `Quick reader_bad_trailer;
            Alcotest.test_case "send and release allocate nothing" `Quick
              sender_alloc;
          ] );
      ( "cluster",
        List.map cluster_case Protocol_kind.all
        @ [
            Alcotest.test_case "50 blocks" `Quick fifty_blocks;
            Alcotest.test_case "process mode" `Quick process_mode;
            Alcotest.test_case "traced run" `Quick traced_cluster;
            Alcotest.test_case "malformed injection" `Quick malformed_injection;
            Alcotest.test_case "hello rejects" `Quick hello_rejects;
            Alcotest.test_case "silent connector" `Quick silent_connector;
            Alcotest.test_case "output commit" `Quick output_commit;
            Alcotest.test_case "validate rejects" `Quick validate_rejects;
            Alcotest.test_case "deadline exit (threads)" `Quick
              (deadline_exit Tcp.Threads);
            Alcotest.test_case "deadline exit (procs)" `Quick
              (deadline_exit Tcp.Processes);
          ] );
      ( "executor",
        [
          Alcotest.test_case "persist before release" `Quick
            executor_output_commit;
          Alcotest.test_case "timers in deadline order" `Quick
            executor_timer_order;
          Alcotest.test_case "cancelled in the same batch" `Quick
            executor_cancel_in_batch;
          Alcotest.test_case "malformed body" `Quick executor_malformed;
          Alcotest.test_case "crash verdict ends the iteration" `Quick
            executor_crash_verdict;
          Alcotest.test_case "trailer mismatch is malformed" `Quick
            executor_trailer_mismatch;
          Alcotest.test_case "receive cost independent of payload" `Quick
            executor_receive_alloc;
          Alcotest.test_case "identical bodies decode once" `Quick
            executor_decode_once;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "threads crash/recover" `Quick
            threads_crash_recover;
          Alcotest.test_case "process crash/recover" `Quick
            process_crash_recover;
        ] );
      ( "readers",
        [
          Alcotest.test_case "check dense" `Quick check_dense;
          Alcotest.test_case "check gap without crash" `Quick check_gap_no_crash;
          Alcotest.test_case "check gap with crash" `Quick check_gap_with_crash;
          Alcotest.test_case "check conflict" `Quick check_conflict;
          Alcotest.test_case "quorum_commits earliest" `Quick
            quorum_commits_earliest;
          Alcotest.test_case "commit without proposal" `Quick
            commit_without_proposal;
          Alcotest.test_case "quorum_latencies from the pass" `Quick
            quorum_latencies_from_pass;
          Alcotest.test_case "net_liveness by hand" `Quick net_liveness_by_hand;
          Alcotest.test_case "client_stats by hand" `Quick client_stats_by_hand;
        ] );
      ( "host",
        List.map
          (fun (name, sched, id, inc, views, want) ->
            Alcotest.test_case name `Quick
              (fault_step_run sched id inc views want))
          fault_step_table );
    ]
    @ List.map
        (fun (group, cases) ->
          ( group,
            List.map
              (fun (name, kind, scenario) ->
                Alcotest.test_case name `Quick (crossval_run kind scenario))
              cases ))
        crossval_table)
