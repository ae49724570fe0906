open Bft_types

type t =
  | Propose of { block : Block.t; qc : Moonshot.Cert.t; tc : Moonshot.Tc.t option }
  | Vote of { block : Block.t }
  | Timeout of { round : int; high_qc : Moonshot.Cert.t }
  | Block_request of { hash : Hash.t }
  | Blocks_response of { blocks : Block.t list }

(* Constant wire sizes and CPU costs precomputed at module init, mirroring
   Bft_core.Message: votes and timeouts are the O(n^2)-per-round traffic. *)
let timeout_base_size =
  Wire_size.tag + Wire_size.view + Wire_size.signature + Wire_size.node_id

let block_request_size = Wire_size.tag + Wire_size.hash + Wire_size.node_id

let size = function
  | Propose { block; qc; tc } ->
      let tc_size = match tc with None -> 0 | Some t -> Moonshot.Tc.wire_size t in
      Wire_size.tag
      + Wire_size.block ~payload_bytes:block.Block.payload.Payload.size_bytes
      + Wire_size.signature + Moonshot.Cert.wire_size qc + tc_size
  | Vote _ -> Wire_size.vote
  | Timeout { high_qc; _ } -> timeout_base_size + Moonshot.Cert.wire_size high_qc
  | Block_request _ -> block_request_size
  | Blocks_response { blocks } ->
      Wire_size.tag
      + List.fold_left
          (fun acc (b : Block.t) ->
            acc + Wire_size.block ~payload_bytes:b.Block.payload.Payload.size_bytes)
          0 blocks

let vote_cost = Bft_types.Cpu_model.verify_signatures 1
let timeout_cost = Bft_types.Cpu_model.(verify_signatures 1 +. cache_check_ms)

(* [Cpu_model.verify_signatures] and [Cpu_model.hash_payload], operation
   for operation, inlined so that no float crosses a module boundary. *)
let[@inline] sigs k = float_of_int k *. Cpu_model.sig_verify_ms

let[@inline] hash (b : Block.t) =
  float_of_int b.Block.payload.Payload.size_bytes *. Cpu_model.hash_ms_per_byte

(* Adds each block's hash and cache check to [a.(i)], oldest first. *)
let rec blocks_cost a i = function
  | [] -> ()
  | b :: rest ->
      a.(i) <- a.(i) +. hash b +. Cpu_model.cache_check_ms;
      blocks_cost a i rest

let cpu_cost m a i =
  match m with
  | Propose { block; qc; tc } ->
      let tc_sigs = match tc with None -> 0 | Some t -> t.Moonshot.Tc.signers in
      a.(i) <- sigs (1 + qc.Moonshot.Cert.signers + tc_sigs) +. hash block
  | Vote _ -> a.(i) <- vote_cost
  | Timeout _ -> a.(i) <- timeout_cost
  | Block_request _ -> a.(i) <- Cpu_model.cache_check_ms
  | Blocks_response { blocks } ->
      a.(i) <- 0.;
      blocks_cost a i blocks

(* Payload bytes carried in-band; votes ship only the block header. *)
let payload_bytes = function
  | Propose { block; _ } -> block.Block.payload.Payload.size_bytes
  | Vote _ | Timeout _ | Block_request _ -> 0
  | Blocks_response { blocks } ->
      List.fold_left
        (fun acc (b : Block.t) -> acc + b.Block.payload.Payload.size_bytes)
        0 blocks

let classify = function
  | Propose _ -> `Proposal
  | Vote _ -> `Vote
  | Timeout _ -> `Timeout
  | Block_request _ | Blocks_response _ -> `Other

let view_of = function
  | Propose { block; _ } | Vote { block } -> Some block.Block.view
  | Timeout { round; _ } -> Some round
  | Block_request _ | Blocks_response _ -> None

let digest =
  let h = Hash.to_int64 in
  let bh (b : Block.t) = h b.Block.hash in
  function
  | Propose { block; qc; tc } ->
      let tc_d =
        match tc with None -> Hash.null | Some t -> Moonshot.Tc.digest t
      in
      Hash.of_fields [ 1L; bh block; h (Moonshot.Cert.digest qc); h tc_d ]
  | Vote { block } -> Hash.of_fields [ 2L; bh block ]
  | Timeout { round; high_qc } ->
      Hash.of_fields
        [ 3L; Int64.of_int round; h (Moonshot.Cert.digest high_qc) ]
  | Block_request { hash } -> Hash.of_fields [ 4L; h hash ]
  | Blocks_response { blocks } -> Hash.of_fields (5L :: List.map bh blocks)

(* One vote per round ([last_voted_round]); slot index 1 lines up with
   Moonshot's main-vote slot so checker reports read uniformly. *)
let vote_slot = function
  | Vote { block } -> Some (block.Block.view, 1)
  | Propose _ | Timeout _ | Block_request _ | Blocks_response _ -> None

let pp ppf = function
  | Propose { block; qc; tc } ->
      Format.fprintf ppf "j-propose(%a, %a, tc=%b)" Block.pp block
        Moonshot.Cert.pp qc (Option.is_some tc)
  | Vote { block } -> Format.fprintf ppf "j-vote(%a)" Block.pp block
  | Timeout { round; high_qc } ->
      Format.fprintf ppf "j-timeout(r=%d, %a)" round Moonshot.Cert.pp high_qc
  | Block_request { hash } -> Format.fprintf ppf "j-block-request(%a)" Hash.pp hash
  | Blocks_response { blocks } ->
      Format.fprintf ppf "j-blocks-response(%d blocks)" (List.length blocks)
