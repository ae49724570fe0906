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
  votes : Bft_crypto.Accumulator.t array;
  (* The sum of the digests of every key that reached its quorum: the
     accumulators forget completed keys, [state_hash] must not.  A late
     vote's inert tally (see [Accumulator]) is digested as open. *)
  completed : Hash.Sum.t;
  (* [certs_by_view.(v)]: the certificates recorded at view [v], newest
     first; a view past the end has none.  A certificate's view is one
     that a quorum reached (certificates are trusted as formed: there are
     no signatures to check), and views are reached one after another from
     genesis, so the array is dense and doubles to the highest view
     recorded, 8 B per view.  A new view costs its list cell.  A view
     past the array's reach (see [reach_margin]), which a peer can name
     but no run reaches, goes to [far] instead; a later growth that
     covers it moves it into the array. *)
  mutable certs_by_view : Cert.t list array;
  mutable recorded : int;  (* views holding a certificate *)
  mutable far : (int, Cert.t list) Hashtbl.t option;
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
      completed = Hash.Sum.create ();
      certs_by_view = Array.make 64 [];
      recorded = 1;
      far = None;
      high_cert = Cert.genesis;
      deferred_commits = [];
    }
  in
  (* The genesis certificate is common knowledge at protocol start. *)
  t.certs_by_view.(0) <- [ Cert.genesis ];
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

let far_at t view =
  match t.far with
  | None -> []
  | Some far -> (
      match Hashtbl.find far view with l -> l | exception Not_found -> [])

let certs_at t view =
  let certs = t.certs_by_view in
  if view < Array.length certs then certs.(view) else far_at t view

(* Whether [certs], one view's, hold a [kind] certificate for [block]
   ([Cert.equal_id] within a view), so that a certificate need not be
   built to be looked up.  A named walk rather than [List.exists] with a
   closure: every vote quorum and gossiped certificate lands here, and it
   may not allocate. *)
let rec holds ~kind (block : Block.t) = function
  | [] -> false
  | (c : Cert.t) :: rest ->
      (Vote_kind.equal c.Cert.kind kind && Block.equal c.Cert.block block)
      || holds ~kind block rest

let add_vote t ~signer ~kind block =
  note_block t block;
  let tag = Vote_kind.to_tag kind and key = Hash.to_int block.Block.hash in
  match Bft_crypto.Accumulator.add t.votes.(tag) key ~signer with
  | Threshold_reached ->
      let view = block.Block.view in
      Hash.Sum.add4 t.completed view tag key 1;
      (* The completing vote is the quorum-th. *)
      let signers = Env.quorum t.env in
      (match t.env.Env.probe with
      | Some probe ->
          probe
            (Probe.Cert_formed
               { view; height = block.Block.height; signers })
      | None -> ());
      (* Every caller files a formed certificate with [record_cert], which
         refuses one it holds. *)
      if holds ~kind block (certs_at t view) then None
      else Some (Cert.make ~kind ~view ~block ~signers)
  | Added _ | Duplicate | Already_complete -> None

(* How far past the views holding a certificate the array may grow: a
   peer can name any view, and each certificate it files can then extend
   the array by a bounded amount only, at most [4 * recorded + 2 *
   reach_margin] slots in all.  A node that catches up on more than this
   many views files the first of them in [far]. *)
let reach_margin = 1024

let grow t view =
  let certs = t.certs_by_view in
  let len = Array.length certs in
  let grown = Array.make (Stdlib.max (view + 1) (2 * len)) [] in
  Array.blit certs 0 grown 0 len;
  t.certs_by_view <- grown;
  match t.far with
  | None -> ()
  | Some far ->
      Hashtbl.filter_map_inplace
        (fun v l ->
          if v < Array.length grown then begin
            grown.(v) <- l;
            None
          end
          else Some l)
        far

let record_cert t (c : Cert.t) =
  note_block t c.Cert.block;
  let view = c.Cert.view in
  let existing = certs_at t view in
  if holds ~kind:c.Cert.kind c.Cert.block existing then false
  else begin
    (match existing with [] -> t.recorded <- t.recorded + 1 | _ :: _ -> ());
    if view < Array.length t.certs_by_view then
      t.certs_by_view.(view) <- c :: existing
    else if view < (2 * t.recorded) + reach_margin then begin
      grow t view;
      t.certs_by_view.(view) <- c :: existing
    end
    else begin
      let far =
        match t.far with
        | Some far -> far
        | None ->
            let far = Hashtbl.create 8 in
            t.far <- Some far;
            far
      in
      Hashtbl.replace far view (c :: existing)
    end;
    if Cert.rank_gt c t.high_cert then t.high_cert <- c;
    true
  end

let commit t b =
  if Commit_log.connects t.log t.store b then Commit_log.commit t.log t.store b
  else if
    not
      (List.exists
         (fun (d : Block.t) -> Hash.equal d.Block.hash b.Block.hash)
         t.deferred_commits)
  then t.deferred_commits <- b :: t.deferred_commits

(* The block at view [base] that [child] descends from through one
   certificate at every view from [v] down to [base]; [Not_found] when
   there is none.  Named walks rather than [List.find_opt] with a closure,
   and an exception rather than an option: every new certificate runs
   them. *)
let rec certified_base t ~base (child : Block.t) v =
  if v < base then child else link_below t ~base child v (certs_at t v)

and link_below t ~base child v = function
  | [] -> raise Not_found
  | (link : Cert.t) :: rest ->
      if Cert.certifies_parent_of link child then
        certified_base t ~base link.Cert.block (v - 1)
      else link_below t ~base child v rest

(* Whether a top in [tops] before [here] (a newer one: certificate lists
   are newest first) also reaches [bottom]. *)
let rec newer_reaches t ~base ~top_view (bottom : Block.t) here tops =
  tops != here
  &&
  match tops with
  | [] -> false
  | (top : Cert.t) :: rest ->
      (match certified_base t ~base top.Cert.block (top_view - 1) with
      | b -> Block.equal b bottom
      | exception Not_found -> false)
      || newer_reaches t ~base ~top_view bottom here rest

(* Commit the window's bottoms oldest top first, each once, at the newest
   top that reaches it. *)
let rec commit_window t ~base ~top_view tops = function
  | [] -> ()
  | (top : Cert.t) :: older as here -> (
      commit_window t ~base ~top_view tops older;
      match certified_base t ~base top.Cert.block (top_view - 1) with
      | bottom ->
          if not (newer_reaches t ~base ~top_view bottom here tops) then
            commit t bottom
      | exception Not_found -> ())

let commit_chains t ~depth (c : Cert.t) =
  if depth < 2 then invalid_arg "Node_core.commit_chains: depth < 2";
  (* For every window of [depth] consecutive views containing c's view, walk
     parent links down from the window's top certificates; a fully certified
     chain commits the block at the window's base view.  Windows run from
     the highest base down; bottoms of different windows differ (each is
     at its window's base view). *)
  for base = c.Cert.view downto Stdlib.max 0 (c.Cert.view - depth + 1) do
    let top_view = base + depth - 1 in
    let tops = certs_at t top_view in
    commit_window t ~base ~top_view tops tops
  done

let committed t = Commit_log.length t.log

(* The lowest known block on [child]'s chain, or genesis when the chain is
   whole. *)
let rec above_gap t (child : Block.t) =
  if Block.is_genesis child then child
  else
    match Block_store.find t.store child.Block.parent with
    | parent -> above_gap t parent
    | exception Not_found -> child

let rec first_gap t = function
  | [] -> raise Not_found
  | (b : Block.t) :: rest ->
      let child = above_gap t b in
      if Block.is_genesis child then first_gap t rest else child

(* Runs after every handler (via [Sync.poke]). *)
let first_missing t = first_gap t t.deferred_commits

(* Unordered pieces (store, vote accumulator, cert table) combine
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
    let acc = ref (Hash.to_int64 (Hash.Sum.value t.completed)) in
    Array.iteri
      (fun tag votes ->
        acc :=
          Bft_crypto.Accumulator.fold
            (fun bkey ~signers ~complete acc ->
              if complete then acc
              else
                (* A vote's block is noted before the vote counts, so the
                   store holds it. *)
                let view =
                  match Block_store.find_key t.store bkey with
                  | Some b -> b.Block.view
                  | None -> assert false
                in
                (* Once complete, extra signers are behaviorally inert (the
                   certificate is already out; late votes only feed dedup),
                   so a completed key's digest, in [completed], names no
                   signers: post-quorum vote-arrival orders collapse. *)
                Int64.add acc
                  (h
                     (Hash.of_fields
                        (Int64.of_int view :: Int64.of_int tag
                       :: Int64.of_int bkey :: 0L
                        :: List.map Int64.of_int signers))))
            votes !acc)
      t.votes;
    !acc
  in
  let certs_h =
    let view_h view certs =
      h
        (Hash.of_fields
           (Int64.of_int view :: List.map (fun c -> h (Cert.digest c)) certs))
    in
    let acc = ref 0L in
    Array.iteri
      (fun view certs ->
        if certs <> [] then acc := Int64.add !acc (view_h view certs))
      t.certs_by_view;
    Option.iter
      (Hashtbl.iter (fun view certs ->
           acc := Int64.add !acc (view_h view certs)))
      t.far;
    !acc
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

let rec gather t acc count (b : Block.t) ~max =
  let acc = b :: acc in
  if count + 1 >= max || Block.is_genesis b then acc
  else
    match Block_store.find t.store b.Block.parent with
    | parent -> gather t acc (count + 1) parent ~max
    | exception Not_found -> acc

let chain_segment t hash ~max =
  match Block_store.find t.store hash with
  | b -> gather t [] 0 b ~max
  | exception Not_found -> []
