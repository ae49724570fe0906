open Bft_types
module Wire = Bft_net.Wire
module W = Wire.W
module R = Wire.R
module C = Moonshot.Codec

let tag = function
  | Jolteon_msg.Propose _ -> 0x21
  | Jolteon_msg.Vote _ -> 0x22
  | Jolteon_msg.Timeout _ -> 0x23
  | Jolteon_msg.Block_request _ -> 0x24
  | Jolteon_msg.Blocks_response _ -> 0x25

let write_msg w (m : Jolteon_msg.t) =
  match m with
  | Jolteon_msg.Propose { block; qc; tc } ->
      C.write_block w block;
      C.write_cert w qc;
      W.option w C.write_tc tc
  | Jolteon_msg.Vote { block } -> C.write_block w block
  | Jolteon_msg.Timeout { round; high_qc } ->
      W.uvar w round;
      C.write_cert w high_qc
  | Jolteon_msg.Block_request { hash } -> W.u64 w (Hash.to_int64 hash)
  | Jolteon_msg.Blocks_response { blocks } -> W.list w C.write_block blocks

let encode m = Wire.encode_body ~tag:(tag m) write_msg m

let decode body =
  Wire.decode_body body (fun tag r ->
      match tag with
      | 0x21 ->
          let block = C.read_block r in
          let qc = C.read_cert r in
          let tc = R.option r C.read_tc in
          Jolteon_msg.Propose { block; qc; tc }
      | 0x22 -> Jolteon_msg.Vote { block = C.read_block r }
      | 0x23 ->
          let round = R.uvar r in
          let high_qc = C.read_cert r in
          Jolteon_msg.Timeout { round; high_qc }
      | 0x24 -> Jolteon_msg.Block_request { hash = Hash.of_int64 (R.u64 r) }
      | 0x25 ->
          Jolteon_msg.Blocks_response { blocks = R.list r C.read_block }
      | t -> Wire.bad_tag t)

let encode_msg = encode
let decode_msg body = Result.map_error Wire.error_to_string (decode body)
