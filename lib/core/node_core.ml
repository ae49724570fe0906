open Bft_types
open Bft_chain

type 'msg t = {
  env : 'msg Env.t;
  store : Block_store.t;
  log : Commit_log.t;
  (* One accumulator per vote kind, indexed by [Vote_kind.to_tag] and keyed
     by [Hash.to_int] of the block hash, the block's identity in the store:
     an int key costs no allocation per vote, where a (view, kind, hash)
     tuple would.  The block's view is implied by its hash. *)
  votes : int Bft_crypto.Accumulator.t array;
  certs_by_view : (int, Cert.t list) Hashtbl.t;
  mutable high_cert : Cert.t;
  mutable deferred_commits : Block.t list;
}

let create env =
  let t =
    {
      env;
      store = Block_store.create ();
      log = Commit_log.create ~on_commit:env.Env.on_commit ();
      votes =
        Array.init Vote_kind.count (fun _ ->
            Bft_crypto.Accumulator.create ~n:(Env.n env)
              ~threshold:(Env.quorum env));
      certs_by_view = Hashtbl.create 64;
      high_cert = Cert.genesis;
      deferred_commits = [];
    }
  in
  (* The genesis certificate is common knowledge at protocol start. *)
  Hashtbl.replace t.certs_by_view 0 [ Cert.genesis ];
  t

let env t = t.env
let store t = t.store
let log t = t.log
let high_cert t = t.high_cert

let try_deferred t =
  match t.deferred_commits with
  | [] -> ()
  | pending ->
      let still_deferred =
        List.filter
          (fun b ->
            if Commit_log.connects t.log t.store b then begin
              ignore (Commit_log.commit t.log t.store b);
              false
            end
            else true)
          pending
      in
      t.deferred_commits <- still_deferred

let note_block t b =
  if Block_store.insert t.store b then try_deferred t

let add_vote t ~signer ~kind block =
  note_block t block;
  match
    Bft_crypto.Accumulator.add
      t.votes.(Vote_kind.to_tag kind)
      (Hash.to_int block.Block.hash) ~signer
  with
  | Threshold_reached signers ->
      let signers = Bft_crypto.Signer_set.count signers in
      (match t.env.Env.probe with
      | Some probe ->
          probe
            (Probe.Cert_formed
               { view = block.Block.view; height = block.Block.height; signers })
      | None -> ());
      Some (Cert.make ~kind ~view:block.Block.view ~block ~signers)
  | Added _ | Duplicate | Already_complete -> None

(* [find] rather than [find_opt], and a named walk rather than
   [List.exists (Cert.equal_id c)]: every gossiped certificate lands here,
   and neither may allocate. *)
let certs_at t view =
  match Hashtbl.find t.certs_by_view view with
  | certs -> certs
  | exception Not_found -> []

let rec mem_id c = function
  | [] -> false
  | c' :: rest -> Cert.equal_id c c' || mem_id c rest

let record_cert t (c : Cert.t) =
  note_block t c.Cert.block;
  let existing = certs_at t c.Cert.view in
  if mem_id c existing then false
  else begin
    Hashtbl.replace t.certs_by_view c.Cert.view (c :: existing);
    if Cert.rank_gt c t.high_cert then t.high_cert <- c;
    true
  end

(* The block at view [base] that [child] descends from through one
   certificate at every view from [v] down to [base], if there is one.  A
   named walk, not [List.find_opt] with a closure: every new certificate
   runs it, and only a found chain allocates (its [Some]). *)
let rec certified_base t ~base (child : Block.t) v =
  if v < base then Some child else link_below t ~base child v (certs_at t v)

and link_below t ~base child v = function
  | [] -> None
  | (link : Cert.t) :: rest ->
      if Cert.certifies_parent_of link child then
        certified_base t ~base link.Cert.block (v - 1)
      else link_below t ~base child v rest

let rec mem_block (b : Block.t) = function
  | [] -> false
  | (b' : Block.t) :: rest -> Block.equal b b' || mem_block b rest

let rec window_bottoms t ~base ~top_view found = function
  | [] -> found
  | (top : Cert.t) :: rest ->
      let found =
        match certified_base t ~base top.Cert.block (top_view - 1) with
        | Some bottom when not (mem_block bottom found) -> bottom :: found
        | Some _ | None -> found
      in
      window_bottoms t ~base ~top_view found rest

let chain_commits t ~depth (c : Cert.t) =
  if depth < 2 then invalid_arg "Node_core.chain_commits: depth < 2";
  (* For every window of [depth] consecutive views containing c's view, walk
     parent links down from the window's top certificates; a fully certified
     chain commits the block at the window's base view.  No closure
     captures [found], so it stays a local variable. *)
  let found = ref [] in
  for base = Stdlib.max 0 (c.Cert.view - depth + 1) to c.Cert.view do
    let top_view = base + depth - 1 in
    found := window_bottoms t ~base ~top_view !found (certs_at t top_view)
  done;
  !found

let two_chain_commits t c = chain_commits t ~depth:2 c

let commit t b =
  if Commit_log.connects t.log t.store b then
    ignore (Commit_log.commit t.log t.store b)
  else if
    not
      (List.exists
         (fun (d : Block.t) -> Hash.equal d.Block.hash b.Block.hash)
         t.deferred_commits)
  then t.deferred_commits <- b :: t.deferred_commits

let rec commit_all t = function
  | [] -> ()
  | b :: rest ->
      commit t b;
      commit_all t rest

let committed t = Commit_log.length t.log

(* Runs after every handler (via [Sync.poke]); with nothing deferred it
   returns before building the [probe] closure. *)
let first_missing t =
  match t.deferred_commits with
  | [] -> None
  | deferred ->
      let rec probe (child : Block.t) =
        if Block.is_genesis child then None
        else
          match Block_store.find t.store child.Block.parent with
          | Some parent -> probe parent
          | None -> Some (child.Block.parent, child.Block.proposer)
      in
      List.find_map probe deferred

(* Hashtable-backed pieces (store, vote accumulator, cert table) combine
   per-entry digests with addition so the result is independent of
   iteration order; ordered pieces (commit log, per-view cert lists,
   deferred list) hash as sequences. *)
let state_hash t =
  let h = Hash.to_int64 in
  let bh (b : Block.t) = h b.Block.hash in
  let store_h =
    Block_store.fold (fun b acc -> Int64.add acc (bh b)) t.store 0L
  in
  let log_h = Hash.of_fields (List.map bh (Commit_log.to_list t.log)) in
  let votes_h =
    let acc = ref 0L in
    Array.iteri
      (fun tag votes ->
        acc :=
          Bft_crypto.Accumulator.fold
            (fun bkey ~signers ~complete acc ->
              (* A vote's block is noted before the vote counts, so the
                 store holds it. *)
              let view =
                match Block_store.find_key t.store bkey with
                | Some b -> b.Block.view
                | None -> assert false
              in
              (* Once complete, extra signers are behaviorally inert (the
                 certificate is already out; late votes only feed dedup), so
                 they are excluded — post-quorum vote-arrival orders
                 collapse. *)
              Int64.add acc
                (h
                   (Hash.of_fields
                      (Int64.of_int view :: Int64.of_int tag
                     :: Int64.of_int bkey
                      ::
                      (if complete then [ 1L ]
                       else
                         0L
                         :: List.map Int64.of_int
                              (Bft_crypto.Signer_set.to_list signers))))))
            votes !acc)
      t.votes;
    !acc
  in
  let certs_h =
    Hashtbl.fold
      (fun view certs acc ->
        Int64.add acc
          (h
             (Hash.of_fields
                (Int64.of_int view
                :: List.map (fun c -> h (Cert.digest c)) certs))))
      t.certs_by_view 0L
  in
  let deferred_h = Hash.of_fields (List.map bh t.deferred_commits) in
  Hash.of_fields
    [
      store_h;
      h log_h;
      votes_h;
      certs_h;
      h deferred_h;
      h (Cert.digest t.high_cert);
    ]

let chain_segment t hash ~max =
  match Block_store.find t.store hash with
  | None -> []
  | Some b ->
      let rec gather acc count (b : Block.t) =
        let acc = b :: acc in
        if count + 1 >= max || Block.is_genesis b then acc
        else
          match Block_store.find t.store b.Block.parent with
          | Some parent -> gather acc (count + 1) parent
          | None -> acc
      in
      gather [] 0 b
