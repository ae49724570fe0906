open Bft_types
module Wire = Bft_net.Wire
module W = Wire.W
module R = Wire.R

let write_payload w (p : Payload.t) =
  W.uvar w p.Payload.id;
  W.uvar w p.Payload.size_bytes

let read_payload r =
  let id = R.uvar r in
  let size_bytes = R.uvar r in
  Payload.make ~id ~size_bytes

let write_block w (b : Block.t) =
  W.u64 w (Hash.to_int64 b.Block.parent);
  W.uvar w b.Block.view;
  W.uvar w b.Block.height;
  W.svar w b.Block.proposer;
  write_payload w b.Block.payload

let read_block r =
  let parent = Hash.of_int64 (R.u64 r) in
  let view = R.uvar r in
  let height = R.uvar r in
  let proposer = R.svar r in
  let payload = read_payload r in
  Block.of_wire ~parent ~view ~height ~proposer ~payload

let write_vote_kind w k = W.u8 w (Vote_kind.to_tag k)

let read_vote_kind r =
  match R.u8 r with
  | 0 -> Vote_kind.Opt
  | 1 -> Vote_kind.Normal
  | 2 -> Vote_kind.Fallback
  | t -> R.fail (Printf.sprintf "bad vote kind 0x%02x" t)

let write_cert w (c : Cert.t) =
  write_vote_kind w c.Cert.kind;
  W.uvar w c.Cert.view;
  write_block w c.Cert.block;
  W.uvar w c.Cert.signers

(* Cert.make re-validates view = block.view and signers >= 1; an
   Invalid_argument surfaces as a decode error, not an exception. *)
let read_cert r =
  let kind = read_vote_kind r in
  let view = R.uvar r in
  let block = read_block r in
  let signers = R.uvar r in
  Cert.make ~kind ~view ~block ~signers

let write_tc w (tc : Tc.t) =
  W.uvar w tc.Tc.view;
  W.option w write_cert tc.Tc.high_cert;
  W.uvar w tc.Tc.signers

let read_tc r =
  let view = R.uvar r in
  let high_cert = R.option r read_cert in
  let signers = R.uvar r in
  Tc.make ~view ~high_cert ~signers

let tag = function
  | Message.Opt_propose _ -> 0x01
  | Message.Propose _ -> 0x02
  | Message.Fb_propose _ -> 0x03
  | Message.Vote _ -> 0x04
  | Message.Timeout _ -> 0x05
  | Message.Cert_gossip _ -> 0x06
  | Message.Tc_gossip _ -> 0x07
  | Message.Status _ -> 0x08
  | Message.Commit_vote _ -> 0x09
  | Message.Block_request _ -> 0x0a
  | Message.Blocks_response _ -> 0x0b

let write_msg w (m : Message.t) =
  match m with
  | Message.Opt_propose { block } -> write_block w block
  | Message.Propose { block; cert } ->
      write_block w block;
      write_cert w cert
  | Message.Fb_propose { block; cert; tc } ->
      write_block w block;
      write_cert w cert;
      write_tc w tc
  | Message.Vote { kind; block } ->
      write_vote_kind w kind;
      write_block w block
  | Message.Timeout { view; lock } ->
      W.uvar w view;
      W.option w write_cert lock
  | Message.Cert_gossip c -> write_cert w c
  | Message.Tc_gossip tc -> write_tc w tc
  | Message.Status { view; lock } ->
      W.uvar w view;
      write_cert w lock
  | Message.Commit_vote { view; block } ->
      W.uvar w view;
      write_block w block
  | Message.Block_request { hash } -> W.u64 w (Hash.to_int64 hash)
  | Message.Blocks_response { blocks } -> W.list w write_block blocks

let encode m = Wire.encode_body ~tag:(tag m) write_msg m

let decode body =
  Wire.decode_body body (fun tag r ->
      match tag with
      | 0x01 -> Message.Opt_propose { block = read_block r }
      | 0x02 ->
          let block = read_block r in
          let cert = read_cert r in
          Message.Propose { block; cert }
      | 0x03 ->
          let block = read_block r in
          let cert = read_cert r in
          let tc = read_tc r in
          Message.Fb_propose { block; cert; tc }
      | 0x04 ->
          let kind = read_vote_kind r in
          let block = read_block r in
          Message.Vote { kind; block }
      | 0x05 ->
          let view = R.uvar r in
          let lock = R.option r read_cert in
          Message.Timeout { view; lock }
      | 0x06 -> Message.Cert_gossip (read_cert r)
      | 0x07 -> Message.Tc_gossip (read_tc r)
      | 0x08 ->
          let view = R.uvar r in
          let lock = read_cert r in
          Message.Status { view; lock }
      | 0x09 ->
          let view = R.uvar r in
          let block = read_block r in
          Message.Commit_vote { view; block }
      | 0x0a -> Message.Block_request { hash = Hash.of_int64 (R.u64 r) }
      | 0x0b -> Message.Blocks_response { blocks = R.list r read_block }
      | t -> Wire.bad_tag t)

let encode_msg = encode
let decode_msg body = Result.map_error Wire.error_to_string (decode body)

(* WAL snapshots, for durable (file-backed) write-ahead logs on the live
   transport.  Not a wire frame: no version/tag envelope — the blob lives
   in a file the same node wrote.  All five protocol variants share
   [Wal.t], so this one codec serves them all. *)

let write_snapshot w = function
  | None -> W.u8 w 0
  | Some s ->
      W.u8 w 1;
      W.uvar w s.Wal.cur_view;
      write_cert w s.Wal.lock;
      W.uvar w s.Wal.timeout_view;
      W.option w write_block s.Wal.voted_opt;
      W.bool w s.Wal.voted_main

let encode_wal_uncached wal = W.to_string write_snapshot (Wal.load wal)

let encode_wal wal = Wal.snapshot wal encode_wal_uncached

let decode_wal body =
  Wire.run_decoder (fun () ->
      let r = R.of_string body in
      let wal = Wal.create () in
      (match R.u8 r with
      | 0 -> ()
      | 1 ->
          let cur_view = R.uvar r in
          let lock = read_cert r in
          let timeout_view = R.uvar r in
          let voted_opt = R.option r read_block in
          let voted_main = R.bool r in
          Wal.record wal
            { Wal.cur_view; lock; timeout_view; voted_opt; voted_main }
      | t -> Wire.bad_tag t);
      R.expect_end r;
      wal)
  |> Result.map_error Wire.error_to_string
