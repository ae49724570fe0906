open Bft_types

type pending = P_opt of Block.t | P_normal of Block.t * Cert.t

type how_entered = Via_cert of Cert.t | Via_tc of Tc.t | Via_start | Via_recovery

type t = {
  core : Message.t Node_core.t;
  env : Message.t Env.t;
  sync : Message.t Sync.t;
  wal : Wal.t option;
  equivocate : bool;
  tmo : Timeout_agg.t;
  pending : pending View_buffer.t;
  mutable cur_view : int;
  mutable entered_via : how_entered;
  mutable lock : Cert.t;
  mutable voted : bool;  (* in cur_view *)
  mutable timed_out : bool;  (* of cur_view: stop voting *)
  mutable proposed : bool;  (* as leader of cur_view *)
  mutable cancel_view_timer : unit -> unit;
  mutable cancel_propose_timer : unit -> unit;
  (* What the two timers are armed with, built once per node (the
     callbacks in [create], below the flows they call): a float computed
     per call would be boxed, and a [fun () -> ...] per view is a closure,
     which would also defeat the substrate's per-callback timer record. *)
  view_timeout : float;
  propose_timeout : float;
  mutable expire : unit -> unit;
  mutable propose_wait : unit -> unit;
}

let view_timer_multiplier = 5.
let propose_wait_multiplier = 2.

let make ~equivocate ?wal env =
  let core = Node_core.create env in
  {
    core;
    env;
    sync =
      Sync.create ~core ~env
        ~make_request:(fun hash -> Message.Block_request { hash })
        ~make_response:(fun blocks -> Message.Blocks_response { blocks });
    wal;
    equivocate;
    tmo = Timeout_agg.create env;
    pending = View_buffer.create ~dummy:(P_opt Block.genesis);
    cur_view = 0;
    entered_via = Via_start;
    lock = Cert.genesis;
    voted = false;
    timed_out = false;
    proposed = false;
    cancel_view_timer = (fun () -> ());
    cancel_propose_timer = (fun () -> ());
    view_timeout = view_timer_multiplier *. env.Env.delta;
    propose_timeout = propose_wait_multiplier *. env.Env.delta;
    expire = (fun () -> ());
    propose_wait = (fun () -> ());
  }

(* Persist the safety-critical state; called BEFORE the message that makes
   it binding is sent, as a durable WAL would be.  Simple Moonshot has a
   single vote slot per view and a boolean timeout flag, mapped onto the
   shared WAL state record. *)
let persist t =
  match t.wal with
  | None -> ()
  | Some wal ->
      Wal.record wal
        {
          Wal.cur_view = t.cur_view;
          lock = t.lock;
          timeout_view = (if t.timed_out then t.cur_view else 0);
          voted_opt = None;
          voted_main = t.voted;
        }

let current_view t = t.cur_view
let committed t = Node_core.committed t.core

let send_proposal t ~kind ~view ~parent wrap =
  Proposal_sender.send t.env ~equivocate:t.equivocate ~kind ~view ~parent wrap

(* --- core flows, mutually recursive -------------------------------------- *)

let rec observe_cert t (c : Cert.t) =
  if Node_core.record_cert t.core c then begin
    Node_core.commit_chains t.core ~depth:2 c;
    if c.Cert.view >= t.cur_view then advance_to t (c.Cert.view + 1) (Via_cert c)
    else if
      (* Propose rule (i): the leader proposes upon receiving the previous
         view's certificate within 2 Delta of entering. *)
      c.Cert.view = t.cur_view - 1
      && Env.is_leader t.env ~view:t.cur_view
      && not t.proposed
    then propose_with_cert t c
  end

and observe_tc t (tc : Tc.t) =
  if Timeout_agg.hold t.tmo tc && tc.Tc.view >= t.cur_view then
    advance_to t (tc.Tc.view + 1) (Via_tc tc)

and advance_to t view how =
  if view > t.cur_view then begin
    (* Advance View rule: multicast the justifying certificate, adopt the
       highest block certificate received so far as the lock, and report it
       to the new leader when it is stale. *)
    (match how with
    | Via_cert c -> t.env.Env.multicast (Message.Cert_gossip c)
    | Via_tc tc -> t.env.Env.multicast (Message.Tc_gossip tc)
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
    t.lock <- Node_core.high_cert t.core;
    if t.lock.Cert.view < view - 1 then
      t.env.Env.send (t.env.Env.leader_of view)
        (Message.Status { view; lock = t.lock });
    t.cur_view <- view;
    t.entered_via <- how;
    t.voted <- false;
    t.timed_out <- false;
    t.proposed <- false;
    persist t;
    t.cancel_propose_timer ();
    arm_view_timer t;
    (* A recovered leader may have proposed before the crash; proposing
       again would be honest-node equivocation, so it stays silent and the
       view either proceeds on the earlier proposal or times out. *)
    if Env.is_leader t.env ~view && how <> Via_recovery then begin
      let high = Node_core.high_cert t.core in
      if high.Cert.view = view - 1 then propose_with_cert t high
      else
        t.cancel_propose_timer <-
          t.env.Env.set_timer t.propose_timeout t.propose_wait
    end;
    process_pending t
  end

and propose_with_cert t (c : Cert.t) =
  t.proposed <- true;
  t.cancel_propose_timer ();
  send_proposal t ~kind:Probe.Normal ~view:t.cur_view ~parent:c.Cert.block
    (fun block -> Message.Propose { block; cert = c })

and propose_fallback t =
  (* Propose rule (ii): 2 Delta elapsed; extend the highest certificate
     known, which by then includes every honest lock (status messages). *)
  if not t.proposed then propose_with_cert t (Node_core.high_cert t.core)

and arm_view_timer t =
  t.cancel_view_timer ();
  t.cancel_view_timer <-
    t.env.Env.set_timer t.view_timeout t.expire

(* Rebroadcast while stuck, so view changes survive message loss.  The
   repeat broadcast re-multicasts the evidence that justified entering the
   current view: after a partition in which no side had a quorum, one side
   may have advanced on an in-flight certificate or TC the other never saw,
   and without re-gossip the two sides would rebroadcast timeouts for
   different views at each other forever — neither view ever gathering a
   quorum. *)
and on_view_timer_expiry t =
  if t.timed_out then begin
    t.env.Env.multicast
      (Message.Timeout { view = t.cur_view; lock = Some t.lock });
    match t.entered_via with
    | Via_cert c -> t.env.Env.multicast (Message.Cert_gossip c)
    | Via_tc tc -> t.env.Env.multicast (Message.Tc_gossip tc)
    | Via_start | Via_recovery -> ()
  end
  else local_timeout t;
  arm_view_timer t

and local_timeout t =
  if not t.timed_out then begin
    t.timed_out <- true;
    persist t;
    (match t.env.Env.probe with
    | Some probe -> probe (Probe.Timeout_sent { view = t.cur_view })
    | None -> ());
    (* The timeout carries the sender's lock so that lagging nodes learn
       the certificate that let the rest of the network advance. *)
    t.env.Env.multicast
      (Message.Timeout { view = t.cur_view; lock = Some t.lock })
  end

and process_pending t =
  View_buffer.iter_view t.pending t.cur_view try_pending t;
  View_buffer.drop_below t.pending t.cur_view

and try_pending t = function
  | P_opt block -> try_opt_vote t block
  | P_normal (block, cert) -> try_normal_vote t block cert

and try_opt_vote t block =
  if
    Safety_rules.valid_proposal_block ~leader_of:t.env.Env.leader_of
      ~view:t.cur_view block
    && Safety_rules.simple_opt_vote ~lock:t.lock ~view:t.cur_view
         ~voted:t.voted ~timed_out:t.timed_out ~block
  then cast_vote t block

and try_normal_vote t block cert =
  if
    Safety_rules.valid_proposal_block ~leader_of:t.env.Env.leader_of
      ~view:t.cur_view block
    && Safety_rules.simple_normal_vote ~lock:t.lock ~view:t.cur_view
         ~voted:t.voted ~timed_out:t.timed_out ~block ~cert
  then cast_vote t block

and cast_vote t (block : Block.t) =
  t.voted <- true;
  persist t;
  (match t.env.Env.probe with
  | Some probe ->
      probe
        (Probe.Vote_sent
          {
            view = block.Block.view;
            height = block.Block.height;
            kind = "normal";
          })
  | None -> ());
  t.env.Env.multicast (Message.Vote { kind = Vote_kind.Normal; block });
  let next = block.Block.view + 1 in
  if Env.is_leader t.env ~view:next then
    send_proposal t ~kind:Probe.Optimistic ~view:next ~parent:block (fun b ->
        Message.Opt_propose { block = b })

(* --- message handlers ----------------------------------------------------- *)

let create ?(equivocate = false) ?wal env =
  let t = make ~equivocate ?wal env in
  t.expire <- (fun () -> on_view_timer_expiry t);
  t.propose_wait <- (fun () -> propose_fallback t);
  t

let buffer t view p =
  if view >= t.cur_view then View_buffer.add t.pending ~view p

(* Simple Moonshot's timeouts prove no lock, so its TCs carry none. *)
let on_timeout t ~src view =
  let count = Timeout_agg.add t.tmo ~view ~src None in
  if count > 0 then begin
    (* Timeout rule: join a view change once a weak quorum (and hence at
       least one honest node) requests it for the current view. *)
    if count >= Env.weak_quorum t.env && view = t.cur_view then local_timeout t;
    match Timeout_agg.form_tc t.tmo view with
    | Some tc -> observe_tc t tc
    | None -> ()
  end

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
  | Message.Vote { kind = _; block } -> (
      match
        Node_core.add_vote t.core ~signer:src ~kind:Vote_kind.Normal block
      with
      | Some cert -> observe_cert t cert
      | None -> ())
  | Message.Timeout { view; lock } ->
      (match lock with Some c -> observe_cert t c | None -> ());
      on_timeout t ~src view
  | Message.Cert_gossip c -> observe_cert t c
  | Message.Tc_gossip tc -> observe_tc t tc
  | Message.Status { lock; _ } -> observe_cert t lock
  | Message.Fb_propose _ | Message.Commit_vote _ ->
      ()  (* Not part of Simple Moonshot. *)
  | Message.Block_request { hash } -> Sync.handle_request t.sync ~src hash
  | Message.Blocks_response { blocks } -> Sync.handle_response t.sync blocks

let handle t ~src msg =
  handle t ~src msg;
  Sync.poke t.sync

let start t =
  match Option.map Wal.load t.wal with
  | Some (Some saved) ->
      (* Crash recovery: resume from the recorded view with the recorded
         lock and vote slot; the block synchronizer refills the store. *)
      ignore (Node_core.record_cert t.core saved.Wal.lock);
      advance_to t saved.Wal.cur_view Via_recovery;
      t.lock <- saved.Wal.lock;
      t.voted <- saved.Wal.voted_main;
      t.timed_out <- saved.Wal.timeout_view >= saved.Wal.cur_view;
      (* Re-persist: a second crash must still see the restored vote slot
         (advance_to recorded the cleared one). *)
      persist t
  | Some None | None -> advance_to t 1 Via_start

(* --- model-checker support ----------------------------------------------- *)

let pending_digest = function
  | P_opt b -> Hash.to_int64 (Hash.of_fields [ 1L; Hash.to_int64 b.Block.hash ])
  | P_normal (b, c) ->
      Hash.to_int64
        (Hash.of_fields
           [ 2L; Hash.to_int64 b.Block.hash; Hash.to_int64 (Cert.digest c) ])

let via_digest = function
  | Via_cert c -> Hash.to_int64 (Hash.of_fields [ 1L; Hash.to_int64 (Cert.digest c) ])
  | Via_tc tc -> Hash.to_int64 (Hash.of_fields [ 2L; Hash.to_int64 (Tc.digest tc) ])
  | Via_start -> 3L
  | Via_recovery -> 4L

(* Hashtable-keyed pieces combine per-entry digests with addition
   (iteration-order independent); everything else hashes as a sequence.
   Timer state lives in the engine and is digested by the checker. *)
let state_hash t =
  let h = Hash.to_int64 in
  Hash.of_fields
    [
      h (Node_core.state_hash t.core);
      h (Sync.state_hash t.sync);
      Timeout_agg.entries_digest t.tmo;
      Timeout_agg.tcs_digest t.tmo;
      View_buffer.digest pending_digest t.pending;
      Int64.of_int t.cur_view;
      via_digest t.entered_via;
      h (Cert.digest t.lock);
      (if t.voted then 1L else 0L);
      (if t.timed_out then 1L else 0L);
      (if t.proposed then 1L else 0L);
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
          && s.Wal.timeout_view = (if t.timed_out then t.cur_view else 0)
          && s.Wal.voted_opt = None
          && s.Wal.voted_main = t.voted)

module Protocol = struct
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
  let create ?(equivocate = false) ?wal env = create ~equivocate ?wal env
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
