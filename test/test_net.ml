(* Wire-format and live-network substrate tests.

   Codec layer: qcheck round-trips (decode of encode is the identity) over
   every constructor of both message families, strict-prefix truncation
   rejection, garbage-never-raises fuzzing, and byte-pinned vectors that
   docs/WIRE.md quotes verbatim.

   Transport layer: localhost TCP clusters for all five protocols (thread
   and process modes), survival under malformed-frame injection, trace
   merging, and the substrate cross-validation: the simulator and the
   socket clusters must commit identical chains.

   Post-hoc readers: [Net_harness.check], [Tcp.quorum_commits],
   [Net_harness.net_liveness] and [Net_harness.client_stats] on synthetic
   socket results, no sockets involved.

   Node host: the logical fault step both substrates run after each event,
   fed views by hand. *)

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
       QCheck.Gen.return (Printf.sprintf "\x01%c%s" (Char.chr tag) rest));
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
      let w = Wire.W.create () in
      Wire.W.uvar w v;
      let r = Wire.R.of_string (Wire.W.contents w) in
      let v' = Wire.R.uvar r in
      Wire.R.expect_end r;
      v' = v)

let prop_svar_roundtrip =
  (* [asr 2] keeps magnitudes under the writer's 2^61 zigzag bound while
     still covering the full sign range. *)
  QCheck.Test.make ~name:"svar round-trip" ~count:1000
    QCheck.(map (fun i -> i asr 2) int)
    (fun v ->
      let w = Wire.W.create () in
      Wire.W.svar w v;
      let r = Wire.R.of_string (Wire.W.contents w) in
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
    "Vote{Normal, genesis} body" "01040100000000000000000000010000"
    (hex body);
  Alcotest.(check string)
    "framed" ("00000010" ^ hex body)
    (hex (Wire.frame body))

let pinned_timeout_vector () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  Alcotest.(check string) "Timeout{3, None} body" "01050300" (hex body)

let pinned_jolteon_vote_vector () =
  let body = Jcodec.encode (Jmsg.Vote { block = Block.genesis }) in
  Alcotest.(check string)
    "Jolteon Vote{genesis} body" "012200000000000000000000010000"
    (hex body)

let bad_version_rejected () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  let bad = "\x02" ^ String.sub body 1 (String.length body - 1) in
  match Codec.decode bad with
  | Error (Wire.Bad_version 2) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad version accepted"

let unknown_tag_rejected () =
  match Codec.decode "\x01\x7f" with
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
  let w = Wire.W.create () in
  Wire.W.u8 w 0x01;
  Wire.W.u8 w 0x04;
  Wire.W.u8 w 1;
  Wire.W.u64 w 0L;
  Wire.W.uvar w 0;
  Wire.W.uvar w 0;
  Wire.W.svar w (-2);
  Wire.W.uvar w 0;
  Wire.W.uvar w 0;
  match Codec.decode (Wire.W.contents w) with
  | Error (Wire.Invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad proposer accepted"

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
  let lines = Tcp.merged_trace r ~quorum in
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
    let w = Wire.W.create () in
    Wire.W.u8 w 0x01;
    Wire.W.u8 w 0x00;
    Wire.W.uvar w 2;
    Wire.W.uvar w 4;
    Wire.W.bytes w (Protocol_kind.name kind);
    (try
       Wire.write_all fd (Wire.frame (Wire.W.contents w));
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

let hello_frame ?(version = 0x01) ~sender ~n ~protocol () =
  let w = Wire.W.create () in
  Wire.W.u8 w version;
  Wire.W.u8 w 0x00;
  Wire.W.uvar w sender;
  Wire.W.uvar w n;
  Wire.W.bytes w protocol;
  Wire.frame (Wire.W.contents w)

(* A validator that rejects a hello closes the connection without writing
   anything: from the rogue client's side that is a clean EOF (or a reset
   if our write raced the close). *)
let expect_closed what fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
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
    let try_hello what frame =
      let fd = connect 400 in
      (try Wire.write_all fd frame with Unix.Unix_error _ -> ());
      expect_closed what fd
    in
    try_hello "wrong protocol"
      (hello_frame ~sender:2 ~n:4 ~protocol:"bogus-protocol" ());
    try_hello "wrong cluster size" (hello_frame ~sender:2 ~n:5 ~protocol:proto ());
    try_hello "sender out of range"
      (hello_frame ~sender:9 ~n:4 ~protocol:proto ());
    (* Node 0's own id claimed by a peer: self-loops never dial out, so
       an inbound hello naming the listener itself is an impostor. *)
    try_hello "sender is self" (hello_frame ~sender:0 ~n:4 ~protocol:proto ());
    try_hello "stale version"
      (hello_frame ~version:0x02 ~sender:2 ~n:4 ~protocol:proto ())
  in
  let injector = Thread.create inject () in
  let r = Net_harness.run kind cfg in
  Thread.join injector;
  match Net_harness.check r ~target:10 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* A connector that never sends its hello (a peer killed mid-dial) must
   not stall the validator that accepted it: the hello read times out and
   the cluster still reaches its target.  Without the timeout node 0
   blocks in that read until the silent socket closes. *)
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
    | blob -> (
        match Codec.decode_wal blob with
        | Error _ -> false
        | Ok w -> (
            match Moonshot.Wal.load w with
            | None -> false
            | Some st ->
                st.Moonshot.Wal.cur_view > view
                || st.Moonshot.Wal.cur_view = view
                   && if slot = 0 then st.Moonshot.Wal.voted_opt <> None
                      else st.Moonshot.Wal.voted_main))

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

(* --- post-hoc readers on synthetic results ---------------------------------- *)

let commit ?(payload = Payload.make ~id:0 ~size_bytes:0) ~t h hash =
  {
    Tcp.c_height = h;
    c_view = h;
    c_hash = hash;
    c_time_ms = t;
    c_payload_id = payload.Payload.id;
    c_payload_bytes = payload.Payload.size_bytes;
  }

let node ?(restarts = 0) id commits =
  {
    Tcp.id;
    commits;
    proposals = [];
    trace_lines = [];
    decode_errors = 0;
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

(* Four nodes committing heights 1-3 with hash [100 + h].  With [gap],
   node 1 commits heights 1, 3, 4; with [conflict], node 2 commits hash
   999 at height 2. *)
let synthetic ?(restarts = 0) ?fault_events ?(gap = false) ?(conflict = false)
    () =
  let chain ?(bad = false) hs =
    List.map
      (fun h ->
        commit ~t:(float_of_int h) h
          (if bad && h = 2 then 999L else Int64.of_int (100 + h)))
      hs
  in
  result ?fault_events
    [
      node 0 (chain [ 1; 2; 3 ]);
      node ~restarts 1 (chain (if gap then [ 1; 3; 4 ] else [ 1; 2; 3 ]));
      node 2 (chain ~bad:conflict [ 1; 2; 3 ]);
      node 3 (chain [ 1; 2; 3 ]);
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

(* Block A: earliest commits 5, 3, 4, 20 (node 2 re-commits at 9 after a
   recovery) -> the 3rd smallest is node 0's, at 5.  Block B: nodes 0 and
   2 only, node 2 twice -> two distinct nodes, no quorum. *)
let quorum_commits_earliest () =
  let r =
    result
      [
        node 0 [ commit ~t:5. 1 0xAL; commit ~t:6. 2 0xBL ];
        node 1 [ commit ~t:3. 1 0xAL ];
        node ~restarts:1 2
          [ commit ~t:4. 1 0xAL; commit ~t:7. 2 0xBL; commit ~t:9. 1 0xAL;
            commit ~t:10. 2 0xBL ];
        node 3 [ commit ~t:20. 1 0xAL ];
      ]
  in
  match Tcp.quorum_commits r ~quorum:3 with
  | [ (id, c) ] ->
      Alcotest.(check int) "quorum-th committer" 0 id;
      Alcotest.(check int64) "block" 0xAL c.Tcp.c_hash;
      Alcotest.(check (float 0.)) "quorum time" 5. c.Tcp.c_time_ms
  | qs -> Alcotest.failf "expected one quorum commit, got %d" (List.length qs)

(* n = 4, quorum 3, Delta 10 (bound 200 ms).  Node 2 crashes at 15 and
   recovers at 50 (GST), then re-commits h1 and catches up.
   Quorum commits: h1 at 12 (10, 11, 12), h2 at 40 (20, 25, 40; node 2's
   66 is 4th), h3 at 62 (60, 61, 62).  At the recovery the quorum height
   is 2, which node 2 reaches at 66.  The only quorum commit after GST
   is h3, 22 ms after h2.  The run ends at 100 < 50 + 200, so no window
   check runs. *)
let net_liveness_by_hand () =
  let fe t kind = { Tcp.fe_time_ms = t; fe_node = 2; fe_kind = kind } in
  let r =
    result
      ~fault_events:
        [ fe 15. Bft_obs.Trace.Crash; fe 50. Bft_obs.Trace.Recover ]
      [
        node 0 [ commit ~t:10. 1 1L; commit ~t:20. 2 2L; commit ~t:60. 3 3L ];
        node 1 [ commit ~t:12. 1 1L; commit ~t:25. 2 2L; commit ~t:61. 3 3L ];
        node ~restarts:1 2
          [ commit ~t:11. 1 1L; commit ~t:65. 1 1L; commit ~t:66. 2 2L;
            commit ~t:70. 3 3L ];
        node 3 [ commit ~t:30. 1 1L; commit ~t:40. 2 2L; commit ~t:62. 3 3L ];
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
  let b1 = Payload.batch ~cursor:0 ~watermark:2 ~count:2 in
  let b2 = Payload.batch ~cursor:2 ~watermark:4 ~count:2 in
  let c ~t h =
    commit ~payload:(if h = 1 then b1 else b2) ~t h (Int64.of_int h)
  in
  let r =
    result
      [
        node 0 [ c ~t:20. 1; c ~t:47. 2 ];
        node 1 [ c ~t:25. 1; c ~t:45. 2 ];
        node 2 [ c ~t:22. 1; c ~t:50. 2 ];
        node 3 [ c ~t:40. 1; c ~t:46. 2 ];
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
            (s.rejected + s.committed + s.pending + s.backlogged)
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
          Alcotest.test_case "bad version" `Quick bad_version_rejected;
          Alcotest.test_case "unknown tag" `Quick unknown_tag_rejected;
          Alcotest.test_case "trailing bytes" `Quick trailing_rejected;
          Alcotest.test_case "bad proposer" `Quick negative_height_rejected;
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
