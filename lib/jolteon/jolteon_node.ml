open Bft_types
module Cert = Moonshot.Cert
module Tc = Moonshot.Tc
module Node_core = Moonshot.Node_core
module Wal = Moonshot.Wal
module Timeout_agg = Moonshot.Timeout_agg
module View_buffer = Moonshot.View_buffer

type pending = P of Block.t * Cert.t * Tc.t option

type how_entered = Via_qc of Cert.t | Via_tc of Tc.t | Via_start | Via_recovery

type t = {
  core : Jolteon_msg.t Node_core.t;
  env : Jolteon_msg.t Env.t;
  sync : Jolteon_msg.t Moonshot.Sync.t;
  wal : Wal.t option;
  equivocate : bool;
  commit_depth : int;
  tmo : Timeout_agg.t;
  pending : pending View_buffer.t;
  timeout_sent : (int, unit) Hashtbl.t;
  mutable cur_round : int;
  mutable last_voted_round : int;
  mutable timeout_round : int;  (* highest round a timeout was sent for *)
  mutable cancel_timer : unit -> unit;
  (* What [arm_round_timer] hands the timer, built once: a float computed
     per call would be boxed, and [fun () -> on_round_timer t] is a
     closure. *)
  round_timeout : float;
  mutable expire : unit -> unit;
}

let round_timer_multiplier = 4.

(* Persist the safety-critical state before the message that makes it
   binding hits the wire.  Jolteon's slots map onto the shared WAL record:
   the lock is the high QC, [voted_main] says whether the current round's
   single vote was cast ([last_voted_round] is monotone, so equality with
   the current round captures it exactly). *)
let persist t =
  match t.wal with
  | None -> ()
  | Some wal ->
      Wal.record wal
        {
          Wal.cur_view = t.cur_round;
          lock = Node_core.high_cert t.core;
          timeout_view = t.timeout_round;
          voted_opt = None;
          voted_main = t.last_voted_round >= t.cur_round;
        }

let committed t = Node_core.committed t.core

let send_proposal t ~round ~qc ~tc =
  Moonshot.Proposal_sender.send t.env ~equivocate:t.equivocate
    ~kind:(if tc = None then Probe.Normal else Probe.Fallback)
    ~view:round ~parent:qc.Cert.block
    (fun block -> Jolteon_msg.Propose { block; qc; tc })

let rec observe_qc t (qc : Cert.t) =
  if Node_core.record_cert t.core qc then begin
    Node_core.commit_chains t.core ~depth:t.commit_depth qc;
    if qc.Cert.view >= t.cur_round then
      advance_to t (qc.Cert.view + 1) (Via_qc qc)
  end

and observe_tc t (tc : Tc.t) =
  (match tc.Tc.high_cert with Some c -> observe_qc t c | None -> ());
  if Timeout_agg.hold t.tmo tc && tc.Tc.view >= t.cur_round then
    advance_to t (tc.Tc.view + 1) (Via_tc tc)

and send_timeout t round =
  if not (Hashtbl.mem t.timeout_sent round) then begin
    Hashtbl.replace t.timeout_sent round ();
    t.timeout_round <- max t.timeout_round round;
    persist t;
    (match t.env.Env.probe with
    | Some probe -> probe (Probe.Timeout_sent { view = round })
    | None -> ());
    t.env.Env.multicast
      (Jolteon_msg.Timeout { round; high_qc = Node_core.high_cert t.core })
  end

and arm_round_timer t =
  t.cancel_timer ();
  t.cancel_timer <- t.env.Env.set_timer t.round_timeout t.expire

(* Rebroadcast while stuck, so view changes survive message loss. *)
and on_round_timer t =
  if Hashtbl.mem t.timeout_sent t.cur_round then
    t.env.Env.multicast
      (Jolteon_msg.Timeout
         { round = t.cur_round; high_qc = Node_core.high_cert t.core })
  else send_timeout t t.cur_round;
  arm_round_timer t

and advance_to t round how =
  if round > t.cur_round then begin
    (match t.env.Env.probe with
    | Some probe ->
        let via =
          match how with
          | Via_qc _ -> `Cert
          | Via_tc _ -> `Tc
          | Via_start -> `Start
          | Via_recovery -> `Recovery
        in
        probe (Probe.View_entered { view = round; via })
    | None -> ());
    t.cur_round <- round;
    persist t;
    arm_round_timer t;
    if Env.is_leader t.env ~view:round then begin
      match how with
      | Via_recovery ->
          (* A recovered leader may have proposed before the crash;
             proposing again would be honest-node equivocation. *)
          ()
      | Via_start -> send_proposal t ~round ~qc:Cert.genesis ~tc:None
      | Via_qc qc -> send_proposal t ~round ~qc ~tc:None
      | Via_tc tc ->
          (* high_qc >= every QC reported in the TC: its embedded high cert
             was observed above, so extending high_qc satisfies voters. *)
          send_proposal t ~round ~qc:(Node_core.high_cert t.core) ~tc:(Some tc)
    end;
    process_pending t;
    (* Drop buffers for rounds we have left behind: [buffer] adds no round
       below [cur_round], so dropping on entering a round is enough. *)
    View_buffer.drop_below t.pending t.cur_round
  end

and process_pending t = View_buffer.iter_view t.pending t.cur_round try_vote t

and try_vote t (P (block, qc, tc)) =
  let round = block.Block.view in
  let justified =
    qc.Cert.view = round - 1
    || match tc with
       | Some tc' ->
           tc'.Tc.view = round - 1 && qc.Cert.view >= Tc.high_cert_view tc'
       | None -> false
  in
  if
    round = t.cur_round
    && round > t.last_voted_round
    && t.timeout_round < round
    && block.Block.proposer = t.env.Env.leader_of round
    && Cert.certifies_parent_of qc block
    && justified
  then begin
    t.last_voted_round <- round;
    persist t;
    (match t.env.Env.probe with
    | Some probe ->
        probe
          (Probe.Vote_sent
            { view = round; height = block.Block.height; kind = "normal" })
    | None -> ());
    t.env.Env.send (t.env.Env.leader_of (round + 1)) (Jolteon_msg.Vote { block })
  end

let create ?(equivocate = false) ?(commit_depth = 2) ?wal env =
  if commit_depth < 2 then invalid_arg "Jolteon_node.create: commit_depth < 2";
  let core = Node_core.create env in
  let t =
  {
    core;
    env;
    sync =
      Moonshot.Sync.create ~core ~env
        ~make_request:(fun hash -> Jolteon_msg.Block_request { hash })
        ~make_response:(fun blocks -> Jolteon_msg.Blocks_response { blocks });
    wal;
    equivocate;
    commit_depth;
    tmo = Timeout_agg.create env;
    pending = View_buffer.create ~dummy:(P (Block.genesis, Cert.genesis, None));
    timeout_sent = Hashtbl.create 16;
    cur_round = 0;
    last_voted_round = 0;
    timeout_round = 0;
    cancel_timer = (fun () -> ());
    round_timeout = round_timer_multiplier *. env.Env.delta;
    expire = (fun () -> ());
  }
  in
  t.expire <- (fun () -> on_round_timer t);
  t

let buffer t round p =
  if round >= t.cur_round then View_buffer.add t.pending ~view:round p

let on_timeout t ~src round high_qc =
  observe_qc t high_qc;
  let count = Timeout_agg.add t.tmo ~view:round ~src (Some high_qc) in
  if count > 0 then begin
    if
      count >= Env.weak_quorum t.env
      && round >= t.cur_round
      && Timeout_agg.amplify t.tmo round
    then send_timeout t round;
    match Timeout_agg.form_tc t.tmo round with
    | Some tc -> observe_tc t tc
    | None -> ()
  end

let handle t ~src msg =
  match msg with
  | Jolteon_msg.Propose { block; qc; tc } ->
      Node_core.note_block t.core block;
      buffer t block.Block.view (P (block, qc, tc));
      observe_qc t qc;
      (match tc with Some tc' -> observe_tc t tc' | None -> ());
      process_pending t
  | Jolteon_msg.Vote { block } -> (
      (* Only the designated aggregator (next round's leader) receives
         votes; it turns a quorum into a QC. *)
      match
        Node_core.add_vote t.core ~signer:src ~kind:Moonshot.Vote_kind.Normal
          block
      with
      | Some qc -> observe_qc t qc
      | None -> ())
  | Jolteon_msg.Timeout { round; high_qc } -> on_timeout t ~src round high_qc
  | Jolteon_msg.Block_request { hash } ->
      Moonshot.Sync.handle_request t.sync ~src hash
  | Jolteon_msg.Blocks_response { blocks } ->
      Moonshot.Sync.handle_response t.sync blocks

let handle t ~src msg =
  handle t ~src msg;
  Moonshot.Sync.poke t.sync

let start t =
  match Option.map Wal.load t.wal with
  | Some (Some saved) ->
      (* Crash recovery: resume from the recorded round with the recorded
         high QC and vote slot; the block synchronizer refills the store. *)
      ignore (Node_core.record_cert t.core saved.Wal.lock);
      advance_to t saved.Wal.cur_view Via_recovery;
      t.timeout_round <- saved.Wal.timeout_view;
      t.last_voted_round <-
        (if saved.Wal.voted_main then saved.Wal.cur_view
         else saved.Wal.cur_view - 1);
      (* Re-persist: a second crash must still see the restored slots. *)
      persist t
  | Some None | None -> advance_to t 1 Via_start

(* --- model-checker support ----------------------------------------------- *)

(* Hashtable-keyed pieces combine per-entry digests with addition
   (iteration-order independent); everything else hashes as a sequence.
   Timer state lives in the engine and is digested by the checker. *)
let state_hash t =
  let h = Hash.to_int64 in
  let table_h tbl per_entry =
    Hashtbl.fold (fun k v acc -> Int64.add acc (per_entry k v)) tbl 0L
  in
  let pending_h =
    View_buffer.digest
      (fun (P (b, qc, tc)) ->
        h
          (Hash.of_fields
             [
               h b.Block.hash;
               h (Cert.digest qc);
               (match tc with None -> 0L | Some tc' -> h (Tc.digest tc'));
             ]))
      t.pending
  in
  let timeout_sent_h =
    table_h t.timeout_sent (fun round () -> Int64.of_int (round + 1))
  in
  Hash.of_fields
    [
      h (Node_core.state_hash t.core);
      h (Moonshot.Sync.state_hash t.sync);
      Timeout_agg.entries_digest t.tmo;
      Timeout_agg.tcs_digest t.tmo;
      pending_h;
      timeout_sent_h;
      Int64.of_int t.cur_round;
      Int64.of_int t.last_voted_round;
      Int64.of_int t.timeout_round;
    ]

(* The WAL's lock slot may lag the in-memory high QC: [observe_qc] records
   certificates without persisting when no round advance follows.  Recovery
   tolerates that (the synchronizer and peers re-supply newer QCs), so the
   invariant is only that memory never falls behind the log. *)
let wal_consistent t =
  match t.wal with
  | None -> true
  | Some wal -> (
      match Wal.load wal with
      | None -> t.cur_round = 0
      | Some s ->
          s.Wal.cur_view = t.cur_round
          && Cert.rank_geq (Node_core.high_cert t.core) s.Wal.lock
          && s.Wal.timeout_view = t.timeout_round
          && s.Wal.voted_main = (t.last_voted_round >= t.cur_round))

module Protocol = struct
  type msg = Jolteon_msg.t

  let msg_size = Jolteon_msg.size
  let cpu_cost = Jolteon_msg.cpu_cost
  let payload_bytes = Jolteon_msg.payload_bytes
  let classify = Jolteon_msg.classify
  let view_of = Jolteon_msg.view_of
  let encode_msg = Jolteon_codec.encode_msg
  let decode_msg = Jolteon_codec.decode_msg

  type node = t
  type wal = Wal.t

  let wal_create = Wal.create
  let wal_encode = Moonshot.Codec.encode_wal
  let wal_decode = Moonshot.Codec.decode_wal
  let create ?(equivocate = false) ?wal env = create ~equivocate ?wal env
  let start = start
  let handle = handle
  let msg_digest = Jolteon_msg.digest
  let pp_msg = Jolteon_msg.pp
  let vote_slot = Jolteon_msg.vote_slot
  let state_hash = state_hash
  let current_view t = t.cur_round
  let lock_view t = (Node_core.high_cert t.core).Cert.view
  let wal_hash = Wal.digest
  let wal_consistent = wal_consistent
end
