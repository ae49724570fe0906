open Bft_types

type t =
  | Opt_propose of { block : Block.t }
  | Propose of { block : Block.t; cert : Cert.t }
  | Fb_propose of { block : Block.t; cert : Cert.t; tc : Tc.t }
  | Vote of { kind : Vote_kind.t; block : Block.t }
  | Timeout of { view : int; lock : Cert.t option }
  | Cert_gossip of Cert.t
  | Tc_gossip of Tc.t
  | Status of { view : int; lock : Cert.t }
  | Commit_vote of { view : int; block : Block.t }
  | Block_request of { hash : Hash.t }
  | Blocks_response of { blocks : Block.t list }

let proposal_base (b : Block.t) =
  Wire_size.tag
  + Wire_size.block ~payload_bytes:b.Block.payload.Payload.size_bytes
  + Wire_size.signature

(* Constant wire sizes, computed once at module init: votes, timeouts,
   commit votes and gossip headers dominate the O(n^2)-per-view traffic, and
   their sizes never depend on the payload. *)
let timeout_base_size =
  Wire_size.tag + Wire_size.view + Wire_size.signature + Wire_size.node_id

let commit_vote_size =
  Wire_size.tag + Wire_size.view + Wire_size.block_header + Wire_size.signature
  + Wire_size.node_id

let block_request_size = Wire_size.tag + Wire_size.hash + Wire_size.node_id

let size = function
  | Opt_propose { block } -> proposal_base block
  | Propose { block; cert } -> proposal_base block + Cert.wire_size cert
  | Fb_propose { block; cert; tc } ->
      proposal_base block + Cert.wire_size cert + Tc.wire_size tc
  | Vote _ -> Wire_size.vote
  | Timeout { lock; _ } ->
      let lock_size = match lock with None -> 0 | Some c -> Cert.wire_size c in
      timeout_base_size + lock_size
  | Cert_gossip c -> Wire_size.tag + Cert.wire_size c
  | Tc_gossip tc -> Wire_size.tag + Tc.wire_size tc
  | Status { lock; _ } -> timeout_base_size + Cert.wire_size lock
  | Commit_vote _ -> commit_vote_size
  | Block_request _ -> block_request_size
  | Blocks_response { blocks } ->
      Wire_size.tag
      + List.fold_left
          (fun acc (b : Block.t) ->
            acc + Wire_size.block ~payload_bytes:b.Block.payload.Payload.size_bytes)
          0 blocks

(* Constant CPU costs likewise precomputed — one cross-module call at init
   instead of one per delivery. *)
let vote_cost = Cpu_model.verify_signatures 1
let timeout_cost = Cpu_model.(verify_signatures 1 +. cache_check_ms)
let gossip_cost = Cpu_model.cache_check_ms

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
  | Opt_propose { block } -> a.(i) <- vote_cost +. hash block
  | Propose { block; cert = _ } ->
      (* The embedded certificate was almost always assembled locally from
         verified votes already; charge the cache check. *)
      a.(i) <- timeout_cost +. hash block
  | Fb_propose { block; cert; tc } ->
      (* Fallback proposals are rare and their TC is fresh: verify it. *)
      a.(i) <- sigs (1 + cert.Cert.signers + tc.Tc.signers) +. hash block
  | Vote _ | Commit_vote _ -> a.(i) <- vote_cost
  | Timeout _ | Status _ -> a.(i) <- timeout_cost
  | Cert_gossip _ | Block_request _ -> a.(i) <- gossip_cost
  | Tc_gossip tc -> a.(i) <- sigs tc.Tc.signers
  | Blocks_response { blocks } ->
      a.(i) <- 0.;
      blocks_cost a i blocks

(* Payload bytes carried in-band: the block body of a proposal or sync
   response.  Votes embed a block in memory but only its header travels
   (Wire_size.vote), so they carry none. *)
let payload_bytes = function
  | Opt_propose { block } | Propose { block; _ } | Fb_propose { block; _ } ->
      block.Block.payload.Payload.size_bytes
  | Vote _ | Timeout _ | Cert_gossip _ | Tc_gossip _ | Status _ | Commit_vote _
  | Block_request _ ->
      0
  | Blocks_response { blocks } ->
      List.fold_left
        (fun acc (b : Block.t) -> acc + b.Block.payload.Payload.size_bytes)
        0 blocks

let classify = function
  | Opt_propose _ | Propose _ | Fb_propose _ -> `Proposal
  | Vote _ | Commit_vote _ -> `Vote
  | Timeout _ -> `Timeout
  | Cert_gossip _ | Tc_gossip _ | Status _ | Block_request _ | Blocks_response _
    -> `Other

let view_of = function
  | Opt_propose { block } | Propose { block; _ } | Fb_propose { block; _ } ->
      Some block.Block.view
  | Vote { block; _ } -> Some block.Block.view
  | Timeout { view; _ } | Status { view; _ } | Commit_vote { view; _ } ->
      Some view
  | Cert_gossip c -> Some c.Cert.view
  | Tc_gossip tc -> Some tc.Tc.view
  | Block_request _ | Blocks_response _ -> None

let digest =
  let h = Hash.to_int64 in
  let bh (b : Block.t) = h b.Block.hash in
  function
  | Opt_propose { block } -> Hash.of_fields [ 1L; bh block ]
  | Propose { block; cert } ->
      Hash.of_fields [ 2L; bh block; h (Cert.digest cert) ]
  | Fb_propose { block; cert; tc } ->
      Hash.of_fields [ 3L; bh block; h (Cert.digest cert); h (Tc.digest tc) ]
  | Vote { kind; block } ->
      Hash.of_fields [ 4L; Int64.of_int (Vote_kind.to_tag kind); bh block ]
  | Timeout { view; lock } ->
      let l = match lock with None -> Hash.null | Some c -> Cert.digest c in
      Hash.of_fields [ 5L; Int64.of_int view; h l ]
  | Cert_gossip c -> Hash.of_fields [ 6L; h (Cert.digest c) ]
  | Tc_gossip tc -> Hash.of_fields [ 7L; h (Tc.digest tc) ]
  | Status { view; lock } ->
      Hash.of_fields [ 8L; Int64.of_int view; h (Cert.digest lock) ]
  | Commit_vote { view; block } ->
      Hash.of_fields [ 9L; Int64.of_int view; bh block ]
  | Block_request { hash } -> Hash.of_fields [ 10L; h hash ]
  | Blocks_response { blocks } -> Hash.of_fields (11L :: List.map bh blocks)

(* A correct node fills the opt slot at most once per view and the main
   slot (normal and fallback votes share it) at most once per view; the
   model checker flags two differently-digested messages in the same slot
   as a double vote.  Commit votes are excluded: a node may legitimately
   commit-vote distinct certified blocks of one view (opt + fallback). *)
let vote_slot = function
  | Vote { kind = Vote_kind.Opt; block } -> Some (block.Block.view, 0)
  | Vote { kind = Vote_kind.Normal | Vote_kind.Fallback; block } ->
      Some (block.Block.view, 1)
  | Opt_propose _ | Propose _ | Fb_propose _ | Timeout _ | Cert_gossip _
  | Tc_gossip _ | Status _ | Commit_vote _ | Block_request _
  | Blocks_response _ ->
      None

let pp ppf = function
  | Opt_propose { block } -> Format.fprintf ppf "opt-propose(%a)" Block.pp block
  | Propose { block; cert } ->
      Format.fprintf ppf "propose(%a, %a)" Block.pp block Cert.pp cert
  | Fb_propose { block; cert; tc } ->
      Format.fprintf ppf "fb-propose(%a, %a, %a)" Block.pp block Cert.pp cert
        Tc.pp tc
  | Vote { kind; block } ->
      Format.fprintf ppf "%a-vote(%a)" Vote_kind.pp kind Block.pp block
  | Timeout { view; lock } ->
      Format.fprintf ppf "timeout(v=%d, lock=%a)" view
        (Format.pp_print_option Cert.pp)
        lock
  | Cert_gossip c -> Format.fprintf ppf "cert-gossip(%a)" Cert.pp c
  | Tc_gossip tc -> Format.fprintf ppf "tc-gossip(%a)" Tc.pp tc
  | Status { view; lock } ->
      Format.fprintf ppf "status(v=%d, %a)" view Cert.pp lock
  | Commit_vote { view; block } ->
      Format.fprintf ppf "commit-vote(v=%d, %a)" view Block.pp block
  | Block_request { hash } -> Format.fprintf ppf "block-request(%a)" Hash.pp hash
  | Blocks_response { blocks } ->
      Format.fprintf ppf "blocks-response(%d blocks)" (List.length blocks)
