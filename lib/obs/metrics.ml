open Bft_types

type block_track = {
  block : Block.t;
  mutable created_at : float option;
  committers : Bft_crypto.Signer_set.t;
  mutable quorum_commit_at : float option;
}

type t = {
  n : int;
  quorum : int;
  blocks : (int, block_track) Hashtbl.t;  (* Hash.to_int *)
  height_first : (int, Block.t) Hashtbl.t;  (* global safety: height -> block *)
  per_node_committed : int array;
  mutable proposed : int;
  mutable on_quorum_commit : (node:int -> time:float -> Block.t -> unit) option;
}

let latency_quorum ~n = (2 * ((n - 1) / 3)) + 1

let create ~n () =
  {
    n;
    quorum = latency_quorum ~n;
    blocks = Hashtbl.create 1024;
    height_first = Hashtbl.create 1024;
    per_node_committed = Array.make n 0;
    proposed = 0;
    on_quorum_commit = None;
  }

let set_on_quorum_commit t f = t.on_quorum_commit <- Some f

(* [find]/[Not_found] rather than [find_opt]: every commit of every node
   looks its block up, and a hit may not allocate. *)
let track t (block : Block.t) =
  let key = Hash.to_int block.Block.hash in
  match Hashtbl.find t.blocks key with
  | b -> b
  | exception Not_found ->
      let b =
        {
          block;
          created_at = None;
          committers = Bft_crypto.Signer_set.create ~n:t.n;
          quorum_commit_at = None;
        }
      in
      Hashtbl.add t.blocks key b;
      b

let on_propose t ~now block =
  let b = track t block in
  if b.created_at = None then begin
    b.created_at <- Some (now ());
    t.proposed <- t.proposed + 1
  end

let check_global_safety t (block : Block.t) =
  match Hashtbl.find t.height_first block.Block.height with
  | exception Not_found -> Hashtbl.add t.height_first block.Block.height block
  | first ->
      if not (Block.equal first block) then
        raise
          (Bft_chain.Commit_log.Safety_violation
             (Format.asprintf
                "nodes committed conflicting blocks at height %d: %a vs %a"
                block.Block.height Block.pp first Block.pp block))

(* The clock is read once, by the commit that completes the quorum. *)
let on_commit t ~node ~now block =
  check_global_safety t block;
  t.per_node_committed.(node) <- t.per_node_committed.(node) + 1;
  let b = track t block in
  if Bft_crypto.Signer_set.add b.committers node then
    if
      Bft_crypto.Signer_set.count b.committers = t.quorum
      && b.quorum_commit_at = None
    then begin
      let time = now () in
      b.quorum_commit_at <- Some time;
      match t.on_quorum_commit with
      | Some f -> f ~node ~time block
      | None -> ()
    end

type record = {
  block : Block.t;
  created_ms : float;
  quorum_commit_ms : float option;
}

type result = {
  committed_blocks : int;
  latencies_ms : float list;
  avg_latency_ms : float;
  payload_bytes_committed : float;
  transfer_rate_bps : float;
  blocks_per_sec : float;
  per_node_committed : int array;
  proposed_blocks : int;
  records : record list;
}

let finish t ~duration_ms =
  let committed, latencies, bytes =
    Hashtbl.fold
      (fun _ b (count, lats, bytes) ->
        match (b.quorum_commit_at, b.created_at) with
        | Some commit_at, Some created_at ->
            ( count + 1,
              (commit_at -. created_at) :: lats,
              bytes
              +. float_of_int b.block.Block.payload.Payload.size_bytes )
        | Some _, None ->
            (* Quorum-committed without an observed proposal: a socket
               run in process mode loses a crashed incarnation's proposal
               records.  The block counts, but its latency is unknown. *)
            ( count + 1,
              lats,
              bytes +. float_of_int b.block.Block.payload.Payload.size_bytes )
        | None, _ -> (count, lats, bytes))
      t.blocks (0, [], 0.)
  in
  let records =
    Hashtbl.fold
      (fun _ b acc ->
        match b.created_at with
        | Some created_ms ->
            { block = b.block; created_ms; quorum_commit_ms = b.quorum_commit_at }
            :: acc
        | None -> acc)
      t.blocks []
    |> List.sort (fun a b -> Float.compare a.created_ms b.created_ms)
  in
  let seconds = duration_ms /. 1000. in
  {
    committed_blocks = committed;
    latencies_ms = latencies;
    avg_latency_ms =
      (if latencies = [] then 0. else Bft_stats.Descriptive.mean latencies);
    payload_bytes_committed = bytes;
    transfer_rate_bps = bytes /. seconds;
    blocks_per_sec = float_of_int committed /. seconds;
    per_node_committed = Array.copy t.per_node_committed;
    proposed_blocks = t.proposed;
    records;
  }

let chain_quality result =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if r.quorum_commit_ms <> None then begin
        let p = r.block.Block.proposer in
        Hashtbl.replace counts p
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
      end)
    result.records;
  Hashtbl.fold (fun p c acc -> (p, c) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
