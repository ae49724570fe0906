open Bft_types

type pending =
  | P_opt of Block.t
  | P_normal of Block.t * Cert.t
  | P_fallback of Block.t * Cert.t * Tc.t

type how_entered = Via_cert of Cert.t | Via_tc of Tc.t | Via_start | Via_recovery

type t = {
  core : Message.t Node_core.t;
  env : Message.t Env.t;
  sync : Message.t Sync.t;
  wal : Wal.t option;
  precommit : bool;
  equivocate : bool;
  lso : bool;
  mutable opt_proposed_view : int;  (* highest view we opt-proposed for *)
  tmo : Timeout_agg.t;
  (* Keyed by [Hash.to_int] of the block hash, as [Node_core]'s votes are;
     see [on_commit_vote]. *)
  commit_votes : Bft_crypto.Accumulator.t;
  commit_completed : Hash.Sum.t;  (* as [Node_core]'s [completed] *)
  pending : pending View_buffer.t;
  timeout_sent : (int, unit) Hashtbl.t;
  commit_voted : (int, Block.t) Hashtbl.t;  (* Hash.to_int -> block *)
  mutable cur_view : int;
  mutable lock : Cert.t;
  mutable timeout_view : int;  (* highest view a timeout was sent for; 0 = none *)
  mutable voted_opt : Block.t option;  (* in cur_view *)
  mutable voted_main : bool;  (* in cur_view *)
  mutable cancel_timer : unit -> unit;
  (* What [arm_view_timer] hands the timer, built once: a float computed
     per call would be boxed, and [fun () -> on_view_timer t] is a closure. *)
  view_timeout : float;
  mutable expire : unit -> unit;
}

let view_timer_multiplier = 3.

(* Persist the safety-critical state; called BEFORE the message that makes
   it binding is sent, as a durable WAL would be. *)
let persist t =
  match t.wal with
  | None -> ()
  | Some wal ->
      Wal.record wal
        {
          Wal.cur_view = t.cur_view;
          lock = t.lock;
          timeout_view = t.timeout_view;
          voted_opt = t.voted_opt;
          voted_main = t.voted_main;
        }

let current_view t = t.cur_view
let timeout_view t = t.timeout_view
let committed t = Node_core.committed t.core

let send_proposal t ~kind ~view ~parent wrap =
  Proposal_sender.send t.env ~equivocate:t.equivocate ~kind ~view ~parent wrap

(* --- forward declarations via mutual recursion -------------------------- *)

let rec observe_cert t (c : Cert.t) =
  if Node_core.record_cert t.core c then begin
    (* Lock rule: adopt any higher-ranked certificate, at any time. *)
    if Cert.rank_gt c t.lock then begin
      t.lock <- c;
      persist t
    end;
    (* Two-chain commit rule, run from both sides of the new certificate. *)
    Node_core.commit_chains t.core ~depth:2 c;
    if t.precommit then maybe_commit_vote t c;
    if c.Cert.view >= t.cur_view then
      advance_to t (c.Cert.view + 1) (Via_cert c)
    else process_pending t
  end

and observe_tc t (tc : Tc.t) =
  (match tc.Tc.high_cert with Some c -> observe_cert t c | None -> ());
  if Timeout_agg.hold t.tmo tc then begin
    (* Timeout rule: join a view change evidenced by a TC. *)
    if tc.Tc.view >= t.cur_view then send_timeout t tc.Tc.view;
    if tc.Tc.view >= t.cur_view then advance_to t (tc.Tc.view + 1) (Via_tc tc)
  end

and send_timeout t view =
  if not (Hashtbl.mem t.timeout_sent view) then begin
    Hashtbl.replace t.timeout_sent view ();
    t.timeout_view <- max t.timeout_view view;
    persist t;
    (match t.env.Env.probe with
    | Some probe -> probe (Probe.Timeout_sent { view })
    | None -> ());
    t.env.Env.multicast (Message.Timeout { view; lock = Some t.lock })
  end

and advance_to t view how =
  if view > t.cur_view then begin
    (* Advance View: relay the evidence before entering. *)
    (match how with
    | Via_cert c -> t.env.Env.multicast (Message.Cert_gossip c)
    | Via_tc tc -> t.env.Env.send (t.env.Env.leader_of view) (Message.Tc_gossip tc)
    | Via_start | Via_recovery -> ());
    (match t.env.Env.probe with
    | Some probe ->
        let via =
          match how with
          | Via_cert _ -> `Cert
          | Via_tc _ -> `Tc
          | Via_start -> `Start
          | Via_recovery -> `Recovery
        in
        probe (Probe.View_entered { view; via })
    | None -> ());
    t.cur_view <- view;
    t.voted_opt <- None;
    t.voted_main <- false;
    persist t;
    arm_view_timer t;
    if Env.is_leader t.env ~view then propose t view how;
    process_pending t
  end

and arm_view_timer t =
  t.cancel_timer ();
  t.cancel_timer <- t.env.Env.set_timer t.view_timeout t.expire

(* On expiry, send — or, when stuck in the view, re-multicast — the timeout
   and re-arm, so view changes survive message loss (a pacemaker-style
   rebroadcast; receivers deduplicate by signer). *)
and on_view_timer t =
  if Hashtbl.mem t.timeout_sent t.cur_view then
    t.env.Env.multicast
      (Message.Timeout { view = t.cur_view; lock = Some t.lock })
  else send_timeout t t.cur_view;
  arm_view_timer t

and propose t view how =
  (* The leader-speaks-once variant never proposes twice for a view: having
     already optimistically proposed, it stays silent — which is exactly
     what costs it reorg resilience (Section III-B: the adversary can make
     optimistic proposals fail even after GST, and an LSO leader cannot
     correct itself). *)
  if t.lso && t.opt_proposed_view >= view then ()
  else
  match how with
  | Via_recovery ->
      (* A recovered leader already proposed before the crash (or its view
         will time out); re-proposing against a stale justification would
         just be ignored by honest voters. *)
      ()
  | Via_start ->
      send_proposal t ~kind:Probe.Normal ~view ~parent:Block.genesis
        (fun block -> Message.Propose { block; cert = Cert.genesis })
  | Via_cert c ->
      send_proposal t ~kind:Probe.Normal ~view ~parent:c.Cert.block
        (fun block -> Message.Propose { block; cert = c })
  | Via_tc tc ->
      (* The Lock rule ran on the TC's embedded certificate before entering,
         so lock >= tc.high_cert as the fallback vote rule requires. *)
      send_proposal t ~kind:Probe.Fallback ~view ~parent:t.lock.Cert.block
        (fun block -> Message.Fb_propose { block; cert = t.lock; tc })

and process_pending t = View_buffer.iter_view t.pending t.cur_view try_pending t

and try_pending t = function
  | P_opt block -> try_opt_vote t block
  | P_normal (block, cert) -> try_normal_vote t block cert
  | P_fallback (block, cert, tc) -> try_fallback_vote t block cert tc

and try_opt_vote t block =
  if
    Safety_rules.valid_proposal_block ~leader_of:t.env.Env.leader_of
      ~view:t.cur_view block
    && Safety_rules.pipelined_opt_vote ~lock:t.lock ~view:t.cur_view
         ~timeout_view:t.timeout_view ~voted_opt:t.voted_opt
         ~voted_main:t.voted_main ~block
  then begin
    t.voted_opt <- Some block;
    persist t;
    cast_vote t Vote_kind.Opt block
  end

and try_normal_vote t block cert =
  if
    Safety_rules.valid_proposal_block ~leader_of:t.env.Env.leader_of
      ~view:t.cur_view block
    && Safety_rules.pipelined_normal_vote ~view:t.cur_view
         ~timeout_view:t.timeout_view ~voted_opt:t.voted_opt
         ~voted_main:t.voted_main ~block ~cert
  then begin
    t.voted_main <- true;
    persist t;
    cast_vote t Vote_kind.Normal block
  end

and try_fallback_vote t block cert tc =
  if
    Safety_rules.valid_proposal_block ~leader_of:t.env.Env.leader_of
      ~view:t.cur_view block
    && Safety_rules.pipelined_fb_vote ~view:t.cur_view
         ~timeout_view:t.timeout_view ~voted_main:t.voted_main ~block ~cert ~tc
  then begin
    t.voted_main <- true;
    persist t;
    cast_vote t Vote_kind.Fallback block
  end

and cast_vote t kind (block : Block.t) =
  (match t.env.Env.probe with
  | Some probe ->
      probe
        (Probe.Vote_sent
          {
            view = block.Block.view;
            height = block.Block.height;
            kind = Format.asprintf "%a" Vote_kind.pp kind;
          })
  | None -> ());
  t.env.Env.multicast (Message.Vote { kind; block });
  (* Optimistic Propose: the next leader extends the block it just voted
     for, without waiting to observe its certification. *)
  let next = block.Block.view + 1 in
  if Env.is_leader t.env ~view:next then begin
    t.opt_proposed_view <- max t.opt_proposed_view next;
    send_proposal t ~kind:Probe.Optimistic ~view:next ~parent:block (fun b ->
        Message.Opt_propose { block = b })
  end

(* --- Commit Moonshot's pre-commit phase --------------------------------- *)

and maybe_commit_vote t (c : Cert.t) =
  let block = c.Cert.block in
  let already = Hashtbl.mem t.commit_voted (Hash.to_int block.Block.hash) in
  if not already then begin
    let direct =
      Safety_rules.direct_precommit ~view:t.cur_view
        ~timeout_view:t.timeout_view ~cert_view:c.Cert.view
    in
    let indirect () =
      Safety_rules.indirect_precommit ~timeout_view:t.timeout_view
        ~cert_view:c.Cert.view ~voted_descendant:(has_commit_voted_descendant t block)
    in
    if direct || indirect () then begin
      prune_commit_voted t;
      Hashtbl.replace t.commit_voted (Hash.to_int block.Block.hash) block;
      (match t.env.Env.probe with
      | Some probe ->
          probe
            (Probe.Vote_sent
              {
                view = c.Cert.view;
                height = block.Block.height;
                kind = "commit";
              })
      | None -> ());
      t.env.Env.multicast (Message.Commit_vote { view = c.Cert.view; block })
    end
  end

and has_commit_voted_descendant t (block : Block.t) =
  let store = Node_core.store t.core in
  Hashtbl.fold
    (fun _ (voted : Block.t) acc ->
      acc
      ||
      match Bft_chain.Block_store.is_ancestor store ~ancestor:block ~of_:voted with
      | `Yes -> true
      | `No | `Unknown -> false)
    t.commit_voted false

and prune_commit_voted t =
  (* Blocks at or below the committed frontier can never need an indirect
     pre-commit again; drop them to keep descendant checks cheap. *)
  if Hashtbl.length t.commit_voted > 64 then begin
    let frontier =
      (Bft_chain.Commit_log.last (Node_core.log t.core)).Block.height
    in
    Hashtbl.filter_map_inplace
      (fun _ (b : Block.t) -> if b.Block.height <= frontier then None else Some b)
      t.commit_voted
  end

let create ?(precommit = false) ?(equivocate = false) ?(lso = false) ?wal env =
  let core = Node_core.create env in
  let t =
  {
    core;
    env;
    sync =
      Sync.create ~core ~env
        ~make_request:(fun hash -> Message.Block_request { hash })
        ~make_response:(fun blocks -> Message.Blocks_response { blocks });
    wal;
    precommit;
    equivocate;
    lso;
    opt_proposed_view = 0;
    tmo = Timeout_agg.create env;
    commit_votes =
      Bft_crypto.Accumulator.create ~n:(Env.n env) ~threshold:(Env.quorum env);
    commit_completed = Hash.Sum.create ();
    pending = View_buffer.create ~dummy:(P_opt Block.genesis);
    timeout_sent = Hashtbl.create 16;
    commit_voted = Hashtbl.create 64;
    cur_view = 0;
    lock = Cert.genesis;
    timeout_view = 0;
    voted_opt = None;
    voted_main = false;
    cancel_timer = (fun () -> ());
    view_timeout = view_timer_multiplier *. env.Env.delta;
    expire = (fun () -> ());
  }
  in
  t.expire <- (fun () -> on_view_timer t);
  t

(* --- message handlers ---------------------------------------------------- *)

let buffer t view p =
  if view >= t.cur_view then begin
    View_buffer.add t.pending ~view p;
    View_buffer.drop_below t.pending t.cur_view
  end

let on_timeout t ~src view lock =
  (match lock with Some c -> observe_cert t c | None -> ());
  let count = Timeout_agg.add t.tmo ~view ~src lock in
  if count > 0 then begin
    (* Bracha-style amplification: a weak quorum for a view not yet left
       behind proves an honest request, so join it, once. *)
    if
      count >= Env.weak_quorum t.env
      && view >= t.cur_view
      && Timeout_agg.amplify t.tmo view
    then send_timeout t view;
    match Timeout_agg.form_tc t.tmo view with
    | Some tc -> observe_tc t tc
    | None -> ()
  end

(* Only a vote at its block's view counts.  Every honest commit vote is
   one ([Cert.make] enforces [view = block.view], on the wire too), so a
   mismatched vote is Byzantine; counted, it would join the block's
   matching votes under the same hash key. *)
let on_commit_vote t ~src view (block : Block.t) =
  Node_core.note_block t.core block;
  if view = block.Block.view then
    let key = Hash.to_int block.Block.hash in
    match Bft_crypto.Accumulator.add t.commit_votes key ~signer:src with
    | Threshold_reached ->
        Hash.Sum.add3 t.commit_completed view key 1;
        Node_core.commit t.core block
    | Added _ | Duplicate | Already_complete -> ()

let handle t ~src msg =
  match msg with
  | Message.Opt_propose { block } ->
      Node_core.note_block t.core block;
      buffer t block.Block.view (P_opt block);
      process_pending t
  | Message.Propose { block; cert } ->
      Node_core.note_block t.core block;
      buffer t block.Block.view (P_normal (block, cert));
      observe_cert t cert;
      process_pending t
  | Message.Fb_propose { block; cert; tc } ->
      Node_core.note_block t.core block;
      buffer t block.Block.view (P_fallback (block, cert, tc));
      observe_cert t cert;
      observe_tc t tc;
      process_pending t
  | Message.Vote { kind; block } -> (
      match Node_core.add_vote t.core ~signer:src ~kind block with
      | Some cert -> observe_cert t cert
      | None -> ())
  | Message.Timeout { view; lock } -> on_timeout t ~src view lock
  | Message.Cert_gossip c -> observe_cert t c
  | Message.Tc_gossip tc -> observe_tc t tc
  | Message.Status _ -> ()  (* Simple Moonshot only. *)
  | Message.Commit_vote { view; block } ->
      if t.precommit then on_commit_vote t ~src view block
  | Message.Block_request { hash } -> Sync.handle_request t.sync ~src hash
  | Message.Blocks_response { blocks } -> Sync.handle_response t.sync blocks

(* Run the message, then let the synchronizer chase any commit that is now
   deferred on missing ancestors. *)
let handle t ~src msg =
  handle t ~src msg;
  Sync.poke t.sync

let start t =
  match Option.map Wal.load t.wal with
  | Some (Some saved) ->
      (* Crash recovery: resume from the recorded view with the recorded
         lock and vote slots; the block synchronizer refills the store. *)
      ignore (Node_core.record_cert t.core saved.Wal.lock);
      t.lock <- saved.Wal.lock;
      t.timeout_view <- saved.Wal.timeout_view;
      advance_to t saved.Wal.cur_view Via_recovery;
      t.voted_opt <- saved.Wal.voted_opt;
      t.voted_main <- saved.Wal.voted_main;
      (* Re-persist: a second crash must still see the restored vote slots
         (advance_to recorded the cleared ones). *)
      persist t
  | Some None | None -> advance_to t 1 Via_start

(* --- model-checker support ----------------------------------------------- *)

let pending_digest =
  let h = Hash.to_int64 in
  function
  | P_opt b -> h (Hash.of_fields [ 1L; h b.Block.hash ])
  | P_normal (b, c) ->
      h (Hash.of_fields [ 2L; h b.Block.hash; h (Cert.digest c) ])
  | P_fallback (b, c, tc) ->
      h
        (Hash.of_fields
           [ 3L; h b.Block.hash; h (Cert.digest c); h (Tc.digest tc) ])

(* Hashtable-keyed pieces combine per-entry digests with addition
   (iteration-order independent); everything else hashes as a sequence.
   Timer state lives in the engine and is digested by the checker. *)
let state_hash t =
  let h = Hash.to_int64 in
  let table_h tbl per_entry =
    Hashtbl.fold (fun k v acc -> Int64.add acc (per_entry k v)) tbl 0L
  in
  let commit_votes_h =
    Bft_crypto.Accumulator.fold
      (fun bkey ~signers ~complete acc ->
        if complete then acc
        else
          (* A commit vote's block is noted before the vote counts, and
             only a vote at the block's view counts. *)
          let view =
            match
              Bft_chain.Block_store.find_key (Node_core.store t.core) bkey
            with
            | Some b -> b.Block.view
            | None -> assert false
          in
          Int64.add acc
            (h
               (Hash.of_fields
                  (Int64.of_int view :: Int64.of_int bkey :: 0L
                  :: List.map Int64.of_int signers))))
      t.commit_votes
      (h (Hash.Sum.value t.commit_completed))
  in
  let timeout_sent_h =
    table_h t.timeout_sent (fun view () -> Int64.of_int (view + 1))
  in
  let commit_voted_h =
    table_h t.commit_voted (fun _ (b : Block.t) -> h b.Block.hash)
  in
  Hash.of_fields
    [
      h (Node_core.state_hash t.core);
      h (Sync.state_hash t.sync);
      Int64.of_int t.opt_proposed_view;
      Timeout_agg.entries_digest t.tmo;
      commit_votes_h;
      Timeout_agg.tcs_digest t.tmo;
      View_buffer.digest pending_digest t.pending;
      timeout_sent_h;
      commit_voted_h;
      Int64.of_int t.cur_view;
      h (Cert.digest t.lock);
      Int64.of_int t.timeout_view;
      (match t.voted_opt with None -> 0L | Some b -> h b.Block.hash);
      (if t.voted_main then 1L else 0L);
    ]

(* Every mutation of a safety slot persists in the same synchronous step,
   so between handler runs the WAL's latest record must mirror memory. *)
let wal_consistent t =
  match t.wal with
  | None -> true
  | Some wal -> (
      match Wal.load wal with
      | None -> t.cur_view = 0
      | Some s ->
          s.Wal.cur_view = t.cur_view
          && Cert.equal_id s.Wal.lock t.lock
          && s.Wal.timeout_view = t.timeout_view
          && Option.equal Block.equal s.Wal.voted_opt t.voted_opt
          && s.Wal.voted_main = t.voted_main)

module Make (Variant : sig
  val precommit : bool
  val lso : bool
end) =
struct
  type msg = Message.t

  let msg_size = Message.size
  let cpu_cost = Message.cpu_cost
  let payload_bytes = Message.payload_bytes
  let classify = Message.classify
  let view_of = Message.view_of
  let encode_msg = Codec.encode_msg
  let decode_msg = Codec.decode_msg

  type node = t
  type wal = Wal.t

  let wal_create = Wal.create
  let wal_encode = Codec.encode_wal
  let wal_decode = Codec.decode_wal

  let create ?(equivocate = false) ?wal env =
    create ~precommit:Variant.precommit ~lso:Variant.lso ~equivocate ?wal env

  let start = start
  let handle = handle
  let msg_digest = Message.digest
  let pp_msg = Message.pp
  let vote_slot = Message.vote_slot
  let state_hash = state_hash
  let current_view = current_view
  let lock_view t = t.lock.Cert.view
  let wal_hash = Wal.digest
  let wal_consistent = wal_consistent
end

module Protocol = Make (struct let precommit = false let lso = false end)
module Commit_protocol = Make (struct let precommit = true let lso = false end)
module Lso_protocol = Make (struct let precommit = false let lso = true end)
