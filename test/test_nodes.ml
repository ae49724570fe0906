(* Behavioural tests driving single Moonshot nodes through a mock
   environment: every protocol rule of Figures 1, 3 and 4 is exercised by
   hand-delivering messages and inspecting what the node emits. *)

open Bft_types
open Moonshot
module B = Test_support.Builders
module Mock = Test_support.Mock_env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let chain = B.chain 5
let blk v = List.nth chain (v - 1)
let cert_of ?kind v = B.cert ?kind (blk v)

(* n = 4, leader of view v is (v - 1) mod 4, quorum 3, weak quorum 2,
   delta 100 ms. *)
let delta = 100.

let make_pipelined ?(precommit = false) ~id () =
  let mock, env = Mock.create ~n:4 ~delta ~id () in
  let node = Pipelined_node.create ~precommit env in
  Mock.attach mock (fun ~src msg -> Pipelined_node.handle node ~src msg);
  Pipelined_node.start node;
  (mock, node)

let make_simple ~id () =
  let mock, env = Mock.create ~n:4 ~delta ~id () in
  let node = Simple_node.create env in
  Mock.attach mock (fun ~src msg -> Simple_node.handle node ~src msg);
  Simple_node.start node;
  (mock, node)

let votes mock =
  List.filter_map
    (function Message.Vote { kind; block } -> Some (kind, block) | _ -> None)
    (Mock.multicasts mock)

let timeouts mock =
  List.filter_map
    (function Message.Timeout { view; lock } -> Some (view, lock) | _ -> None)
    (Mock.multicasts mock)

let proposals mock =
  List.filter_map
    (function
      | Message.Propose { block; cert } -> Some (`Normal (block, cert))
      | Message.Opt_propose { block } -> Some (`Opt block)
      | Message.Fb_propose { block; cert; tc } -> Some (`Fb (block, cert, tc))
      | _ -> None)
    (Mock.multicasts mock)

let commit_votes mock =
  List.filter_map
    (function Message.Commit_vote { view; block } -> Some (view, block) | _ -> None)
    (Mock.multicasts mock)

(* Deliver a full quorum of votes for a block from the three peers of the
   node under test (plus its own if it voted); enough to certify. *)
let deliver_peer_votes node ~kind ~skip block =
  List.iter
    (fun src ->
      if src <> skip then Pipelined_node.handle node ~src (Message.Vote { kind; block }))
    [ 0; 1; 2; 3 ]

(* --- Pipelined Moonshot ----------------------------------------------------- *)

let test_p_leader_proposes_at_start () =
  let mock, node = make_pipelined ~id:0 () in
  check_int "in view 1" 1 (Pipelined_node.current_view node);
  match proposals mock with
  | [ `Normal (block, cert) ] ->
      check "extends genesis" true
        (Block.extends_hash block ~parent_hash:Block.genesis.Block.hash);
      check_int "justified by genesis cert" 0 cert.Cert.view;
      check_int "block for view 1" 1 block.Block.view
  | _ -> Alcotest.fail "leader of view 1 should normal-propose exactly once"

let test_p_nonleader_quiet_at_start () =
  let mock, _node = make_pipelined ~id:2 () in
  check_int "no messages at start" 0 (List.length (Mock.sent mock))

let test_p_votes_on_valid_proposal () =
  let mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  match votes mock with
  | [ (Vote_kind.Normal, b) ] -> check "voted for proposal" true (Block.equal b (blk 1))
  | _ -> Alcotest.fail "expected exactly one normal vote"

let test_p_vote_then_opt_propose_as_next_leader () =
  (* Node 1 is the leader of view 2: upon voting in view 1 it must
     optimistically propose for view 2 without waiting for the certificate. *)
  let mock, node = make_pipelined ~id:1 () in
  Pipelined_node.handle node ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  let opts =
    List.filter_map (function `Opt b -> Some b | _ -> None) (proposals mock)
  in
  (match opts with
  | [ b ] ->
      check_int "opt proposal for view 2" 2 b.Block.view;
      check "extends voted block" true
        (Block.extends_hash b ~parent_hash:(blk 1).Block.hash)
  | _ -> Alcotest.fail "expected exactly one optimistic proposal");
  check_int "still in view 1" 1 (Pipelined_node.current_view node)

let test_p_no_double_vote_on_redelivery () =
  let mock, node = make_pipelined ~id:2 () in
  let msg = Message.Propose { block = blk 1; cert = Cert.genesis } in
  Pipelined_node.handle node ~src:0 msg;
  Pipelined_node.handle node ~src:0 msg;
  check_int "one vote despite redelivery" 1 (List.length (votes mock))

let test_p_rejects_wrong_leader () =
  let mock, node = make_pipelined ~id:2 () in
  let impostor = B.block ~proposer:3 ~view:1 ~parent:Block.genesis () in
  Pipelined_node.handle node ~src:3
    (Message.Propose { block = impostor; cert = Cert.genesis });
  check_int "no vote for impostor" 0 (List.length (votes mock))

let test_p_cert_advances_view_and_gossips () =
  let mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  check_int "entered view 2" 2 (Pipelined_node.current_view node);
  check "re-multicasts the certificate" true
    (List.exists
       (function Message.Cert_gossip c -> c.Cert.view = 1 | _ -> false)
       (Mock.multicasts mock));
  check_int "lock adopted" 1 (Pipelined_node.Protocol.lock_view node)

let test_p_opt_vote_when_locked_on_parent () =
  let mock, node = make_pipelined ~id:3 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  Pipelined_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  match votes mock with
  | [ (Vote_kind.Opt, b) ] -> check "opt vote for view-2 block" true (Block.equal b (blk 2))
  | _ -> Alcotest.fail "expected exactly one optimistic vote"

let test_p_opt_vote_buffered_until_lock () =
  (* The optimistic proposal typically arrives before the certificate that
     justifies entering its view; it must be buffered, then voted. *)
  let mock, node = make_pipelined ~id:3 () in
  Pipelined_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  check_int "no vote yet" 0 (List.length (votes mock));
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  match votes mock with
  | [ (Vote_kind.Opt, b) ] -> check "voted after lock caught up" true (Block.equal b (blk 2))
  | _ -> Alcotest.fail "expected buffered opt proposal to be voted"

let test_p_opt_then_normal_same_block () =
  (* Section IV-A: a node that optimistically voted for B_k MUST also send
     the normal vote for B_k so both certificate kinds can form. *)
  let mock, node = make_pipelined ~id:3 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  Pipelined_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  Pipelined_node.handle node ~src:1
    (Message.Propose { block = blk 2; cert = cert_of 1 });
  let vs = votes mock in
  check_int "two votes" 2 (List.length vs);
  check "opt then normal, same block" true
    (match vs with
    | [ (Vote_kind.Opt, a); (Vote_kind.Normal, b) ] ->
        Block.equal a (blk 2) && Block.equal b (blk 2)
    | _ -> false)

let test_p_no_normal_vote_after_equivocating_opt () =
  let mock, node = make_pipelined ~id:3 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  Pipelined_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  let equivocating = B.block ~view:2 ~payload_id:77 ~parent:(blk 1) () in
  Pipelined_node.handle node ~src:1
    (Message.Propose { block = equivocating; cert = cert_of 1 });
  check_int "only the optimistic vote" 1 (List.length (votes mock))

let test_p_forms_cert_from_votes () =
  (* Receiving a quorum of multicast votes certifies the block locally and
     advances the view. *)
  let _mock, node = make_pipelined ~id:2 () in
  deliver_peer_votes node ~kind:Vote_kind.Normal ~skip:2 (blk 1);
  check_int "advanced on locally formed cert" 2 (Pipelined_node.current_view node);
  check_int "locked the new cert" 1 (Pipelined_node.Protocol.lock_view node)

let test_p_opt_and_normal_certs_do_not_mix () =
  let _mock, node = make_pipelined ~id:2 () in
  (* Two opt votes plus one normal vote: no certificate of either kind. *)
  Pipelined_node.handle node ~src:0 (Message.Vote { kind = Vote_kind.Opt; block = blk 1 });
  Pipelined_node.handle node ~src:1 (Message.Vote { kind = Vote_kind.Opt; block = blk 1 });
  Pipelined_node.handle node ~src:3
    (Message.Vote { kind = Vote_kind.Normal; block = blk 1 });
  check_int "no certificate formed" 1 (Pipelined_node.current_view node)

let test_p_timer_expiry_sends_timeout_with_lock () =
  let mock, node = make_pipelined ~id:2 () in
  Mock.advance mock ~to_:(3. *. delta);
  (match timeouts mock with
  | [ (1, Some lock) ] -> check_int "lock is genesis" 0 lock.Cert.view
  | _ -> Alcotest.fail "expected one timeout for view 1 carrying the lock");
  check_int "timeout view recorded" 1 (Pipelined_node.timeout_view node)

let test_p_timer_not_fired_before_3_delta () =
  let mock, _node = make_pipelined ~id:2 () in
  Mock.advance mock ~to_:(2.9 *. delta);
  check_int "no timeout before 3 delta" 0 (List.length (timeouts mock))

let test_p_bracha_amplification () =
  (* f + 1 = 2 distinct timeouts make the node join the view change. *)
  let mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0 (Message.Timeout { view = 1; lock = None });
  check_int "one timeout is not enough" 0 (List.length (timeouts mock));
  Pipelined_node.handle node ~src:1 (Message.Timeout { view = 1; lock = None });
  check_int "joined after weak quorum" 1 (List.length (timeouts mock))

let test_p_tc_formation_advances_and_unicasts () =
  let mock, node = make_pipelined ~id:2 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 3 ];
  check_int "entered view 2 via TC" 2 (Pipelined_node.current_view node);
  (* The TC is unicast to the leader of view 2 (node 1), not multicast. *)
  check "TC unicast to new leader" true
    (List.exists
       (function 1, Message.Tc_gossip tc -> tc.Tc.view = 1 | _ -> false)
       (Mock.unicasts mock));
  check "TC not multicast" true
    (not
       (List.exists
          (function Message.Tc_gossip _ -> true | _ -> false)
          (Mock.multicasts mock)))

let test_p_fallback_proposal_as_new_leader () =
  (* Node 1 leads view 2; a TC for view 1 makes it fallback-propose
     immediately (optimistic responsiveness: no 2-delta wait). *)
  let mock, node = make_pipelined ~id:1 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 2; 3 ];
  check_int "entered view 2" 2 (Pipelined_node.current_view node);
  let fbs = List.filter_map (function `Fb f -> Some f | _ -> None) (proposals mock) in
  match fbs with
  | [ (block, cert, tc) ] ->
      check_int "fallback for view 2" 2 block.Block.view;
      check_int "extends the lock (genesis)" 0 cert.Cert.view;
      check_int "justified by TC for view 1" 1 tc.Tc.view
  | _ -> Alcotest.fail "expected exactly one fallback proposal"

let test_p_fallback_vote () =
  let mock, node = make_pipelined ~id:2 () in
  (* Enter view 2 via a TC so the fallback proposal is votable. *)
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 3 ];
  let fb_block = B.block ~proposer:1 ~view:2 ~parent:Block.genesis () in
  let tc = B.tc 1 in
  Pipelined_node.handle node ~src:1
    (Message.Fb_propose { block = fb_block; cert = Cert.genesis; tc });
  check "fallback vote cast" true
    (List.exists (fun (k, _) -> Vote_kind.equal k Vote_kind.Fallback) (votes mock))

let test_p_timeout_blocks_votes_in_view () =
  let mock, node = make_pipelined ~id:2 () in
  Mock.advance mock ~to_:(3. *. delta);
  Pipelined_node.handle node ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  check_int "no vote after timing out of the view" 0 (List.length (votes mock))

let test_p_two_chain_commit () =
  let mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  check_int "nothing committed on one cert" 0 (Pipelined_node.committed node);
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 2));
  check_int "parent committed on consecutive certs" 1 (Pipelined_node.committed node);
  match Mock.committed mock with
  | [ b ] -> check "committed block 1" true (Block.equal b (blk 1))
  | _ -> Alcotest.fail "expected one committed block"

let test_p_indirect_commit_of_ancestors () =
  let mock, node = make_pipelined ~id:2 () in
  (* Blocks 1 and 2 are known (their proposals arrived) but were never
     certified from this node's viewpoint; certificates for views 3 and 4
     then commit blocks 1..3 (3 directly, 1 and 2 as ancestors). *)
  Pipelined_node.handle node ~src:0 (Message.Opt_propose { block = blk 1 });
  Pipelined_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 3));
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 4));
  check_int "three blocks committed" 3 (Pipelined_node.committed node);
  check "chain order" true
    (List.map (fun (b : Block.t) -> b.Block.height) (Mock.committed mock) = [ 1; 2; 3 ])

let test_p_nonconsecutive_certs_do_not_commit () =
  let _mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 3));
  check_int "gap means no commit" 0 (Pipelined_node.committed node)

let test_p_normal_after_opt_proposal_same_block () =
  (* Leader of view 2 (node 1) votes in view 1, opt-proposes B_2, then upon
     certification of view 1 must normal-propose the SAME block. *)
  let mock, node = make_pipelined ~id:1 () in
  Pipelined_node.handle node ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  deliver_peer_votes node ~kind:Vote_kind.Normal ~skip:1 (blk 1);
  let opts = List.filter_map (function `Opt b -> Some b | _ -> None) (proposals mock) in
  let normals =
    List.filter_map
      (function `Normal (b, _) when b.Block.view = 2 -> Some b | _ -> None)
      (proposals mock)
  in
  match (opts, normals) with
  | [ o ], [ n ] -> check "optimistic and normal proposals coincide" true (Block.equal o n)
  | _ -> Alcotest.fail "expected one opt and one normal proposal for view 2"


(* --- View-synchronization edge cases --------------------------------------------- *)

let test_p_view_jump_on_future_cert () =
  (* A certificate ten views ahead: the node jumps straight past the gap. *)
  let _mock, node = make_pipelined ~id:2 () in
  let far_chain = B.chain 10 in
  let far = List.nth far_chain 9 in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (B.cert far));
  check_int "jumped to view 11" 11 (Pipelined_node.current_view node);
  check_int "locked the future cert" 10 (Pipelined_node.Protocol.lock_view node)

let test_p_stale_proposal_ignored () =
  let mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 4));
  Mock.clear_outbox mock;
  (* A proposal for long-gone view 1 must not extract a vote. *)
  Pipelined_node.handle node ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  check_int "no vote for a stale view" 0 (List.length (votes mock))

let test_p_timeout_carries_lock_rule () =
  (* The Lock rule fires on certificates embedded in ANY message, including
     timeouts: a timeout carrying C_2 updates the receiver's lock and view. *)
  let _mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:0
    (Message.Timeout { view = 3; lock = Some (cert_of 2) });
  check_int "lock adopted from a timeout" 2 (Pipelined_node.Protocol.lock_view node);
  check_int "and the view advanced" 3 (Pipelined_node.current_view node)

let test_p_late_cert_enables_normal_vote_after_tc () =
  (* Enter view 2 via TC_1; the certificate for view 1 then arrives late,
     followed by a normal proposal justified by it.  timeout_view = 1 < 2,
     so the normal vote is still allowed. *)
  let mock, node = make_pipelined ~id:2 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 3 ];
  check_int "in view 2 via TC" 2 (Pipelined_node.current_view node);
  Mock.clear_outbox mock;
  Pipelined_node.handle node ~src:1
    (Message.Propose { block = blk 2; cert = cert_of 1 });
  check "normal vote allowed after joining the TC" true
    (List.exists (fun (k, _) -> Vote_kind.equal k Vote_kind.Normal) (votes mock))

let test_p_fb_proposal_wrong_tc_view_rejected () =
  let mock, node = make_pipelined ~id:2 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 3 ];
  Mock.clear_outbox mock;
  (* Fallback proposal for view 2 justified by a TC for view 3: invalid. *)
  let fb = B.block ~proposer:1 ~view:2 ~parent:Block.genesis () in
  Pipelined_node.handle node ~src:1
    (Message.Fb_propose { block = fb; cert = Cert.genesis; tc = B.tc 3 });
  check "mismatched TC view rejected" true
    (not (List.exists (fun (k, _) -> Vote_kind.equal k Vote_kind.Fallback) (votes mock)))

let test_s_votes_again_after_view_change () =
  (* Simple Moonshot: timing out of view 1 stops voting there, but the node
     votes normally once a TC moves it to view 2. *)
  let mock, node = make_simple ~id:2 () in
  Mock.advance mock ~to_:(5. *. delta);
  check_int "timed out of view 1" 1 (List.length (timeouts mock));
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 3 ];
  Mock.clear_outbox mock;
  (* In view 2, a valid proposal extracts a vote despite the old timeout. *)
  let b2 = B.block ~proposer:1 ~view:2 ~parent:Block.genesis () in
  Simple_node.handle node ~src:1
    (Message.Propose { block = b2; cert = Cert.genesis });
  check "votes in the new view" true (List.length (votes mock) >= 1)

(* --- Commit Moonshot --------------------------------------------------------- *)

let test_c_commit_vote_on_cert () =
  let mock, node = make_pipelined ~precommit:true ~id:2 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  match commit_votes mock with
  | [ (1, b) ] -> check "commit vote for certified block" true (Block.equal b (blk 1))
  | _ -> Alcotest.fail "expected exactly one commit vote"

let test_c_quorum_of_commit_votes_commits () =
  let _mock, node = make_pipelined ~precommit:true ~id:2 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Commit_vote { view = 1; block = blk 1 }))
    [ 0; 1; 3 ];
  check_int "committed via the explicit path" 1 (Pipelined_node.committed node)

let test_c_no_commit_below_quorum () =
  let _mock, node = make_pipelined ~precommit:true ~id:2 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Commit_vote { view = 1; block = blk 1 }))
    [ 0; 1 ];
  check_int "two commit votes are not enough" 0 (Pipelined_node.committed node)

let test_c_no_commit_vote_after_timeout () =
  let mock, node = make_pipelined ~precommit:true ~id:2 () in
  Mock.advance mock ~to_:(3. *. delta);
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  check_int "timed-out node withholds commit vote" 0 (List.length (commit_votes mock))

let test_c_plain_pipelined_ignores_commit_votes () =
  let _mock, node = make_pipelined ~precommit:false ~id:2 () in
  List.iter
    (fun src ->
      Pipelined_node.handle node ~src (Message.Commit_vote { view = 1; block = blk 1 }))
    [ 0; 1; 3 ];
  check_int "pipelined moonshot has no explicit commit path" 0
    (Pipelined_node.committed node)



(* --- Block synchronizer -------------------------------------------------------- *)

let test_sync_serves_requests () =
  let mock, node = make_pipelined ~id:2 () in
  (* Learn blocks 1 and 2 via proposals. *)
  Pipelined_node.handle node ~src:0 (Message.Opt_propose { block = blk 1 });
  Pipelined_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  Pipelined_node.handle node ~src:3 (Message.Block_request { hash = (blk 2).Block.hash });
  check "responds with the chain segment" true
    (List.exists
       (function
         | 3, Message.Blocks_response { blocks } ->
             List.exists (Block.equal (blk 2)) blocks
             && List.exists (Block.equal (blk 1)) blocks
         | _ -> false)
       (Mock.unicasts mock))

let test_sync_ignores_unknown_requests () =
  let mock, node = make_pipelined ~id:2 () in
  Pipelined_node.handle node ~src:3 (Message.Block_request { hash = (blk 5).Block.hash });
  check "no response for unknown block" true
    (not
       (List.exists
          (function _, Message.Blocks_response _ -> true | _ -> false)
          (Mock.unicasts mock)))

let test_sync_requests_missing_ancestors () =
  (* Certificates for views 3 and 4 arrive at a node missing blocks 1-2:
     the commit defers and a Block_request goes to block 3's proposer. *)
  let mock, node = make_pipelined ~id:3 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 3));
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 4));
  check "block request sent for the gap" true
    (List.exists
       (function _, Message.Block_request _ -> true | _ -> false)
       (Mock.unicasts mock));
  (* Feeding the segment completes the deferred commits. *)
  Pipelined_node.handle node ~src:2
    (Message.Blocks_response { blocks = [ blk 1; blk 2 ] });
  check_int "commits complete after sync" 3 (Pipelined_node.committed node)


(* --- Crash recovery (write-ahead log) ------------------------------------------- *)

let test_wal_prevents_double_vote () =
  (* Vote, crash, restart with the same WAL: the vote slot for the current
     view survives, so an equivocating proposal cannot extract a second
     (conflicting) vote — the amnesia attack the WAL exists to stop. *)
  let wal = Wal.create () in
  let mock1, env1 = Mock.create ~n:4 ~delta ~id:2 () in
  let node1 = Pipelined_node.create ~wal env1 in
  Mock.attach mock1 (fun ~src msg -> Pipelined_node.handle node1 ~src msg);
  Pipelined_node.start node1;
  Pipelined_node.handle node1 ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  check_int "voted before the crash" 1 (List.length (votes mock1));
  (* Crash: node1 is discarded.  Restart over the same WAL. *)
  let mock2, env2 = Mock.create ~n:4 ~delta ~id:2 () in
  let node2 = Pipelined_node.create ~wal env2 in
  Mock.attach mock2 (fun ~src msg -> Pipelined_node.handle node2 ~src msg);
  Pipelined_node.start node2;
  check_int "resumed in the recorded view" 1 (Pipelined_node.current_view node2);
  let equivocating = B.block ~view:1 ~payload_id:777 ~parent:Block.genesis () in
  Pipelined_node.handle node2 ~src:0
    (Message.Propose { block = equivocating; cert = Cert.genesis });
  check_int "no second vote after restart" 0 (List.length (votes mock2))

let test_wal_restores_lock_and_view () =
  let wal = Wal.create () in
  let mock1, env1 = Mock.create ~n:4 ~delta ~id:2 () in
  let node1 = Pipelined_node.create ~wal env1 in
  Mock.attach mock1 (fun ~src msg -> Pipelined_node.handle node1 ~src msg);
  Pipelined_node.start node1;
  Pipelined_node.handle node1 ~src:0 (Message.Cert_gossip (cert_of 2));
  check_int "advanced to view 3" 3 (Pipelined_node.current_view node1);
  let mock2, env2 = Mock.create ~n:4 ~delta ~id:2 () in
  let node2 = Pipelined_node.create ~wal env2 in
  Mock.attach mock2 (fun ~src msg -> Pipelined_node.handle node2 ~src msg);
  Pipelined_node.start node2;
  check_int "view restored" 3 (Pipelined_node.current_view node2);
  check_int "lock restored" 2 (Pipelined_node.Protocol.lock_view node2);
  check_int "wal was written" (Wal.writes wal) (Wal.writes wal);
  ignore mock2

let test_wal_timeout_state_survives () =
  let wal = Wal.create () in
  let mock1, env1 = Mock.create ~n:4 ~delta ~id:2 () in
  let node1 = Pipelined_node.create ~wal env1 in
  Mock.attach mock1 (fun ~src msg -> Pipelined_node.handle node1 ~src msg);
  Pipelined_node.start node1;
  Mock.advance mock1 ~to_:(3. *. delta);
  check_int "timed out of view 1" 1 (Pipelined_node.timeout_view node1);
  let mock2, env2 = Mock.create ~n:4 ~delta ~id:2 () in
  let node2 = Pipelined_node.create ~wal env2 in
  Mock.attach mock2 (fun ~src msg -> Pipelined_node.handle node2 ~src msg);
  Pipelined_node.start node2;
  check_int "timeout view survives restart" 1 (Pipelined_node.timeout_view node2);
  (* An optimistic proposal for view 2 needs timeout_view < 1: refused. *)
  Pipelined_node.handle node2 ~src:0 (Message.Cert_gossip (cert_of 1));
  Pipelined_node.handle node2 ~src:1 (Message.Opt_propose { block = blk 2 });
  check "no optimistic vote after a remembered timeout" true
    (not (List.exists (fun (k, _) -> Vote_kind.equal k Vote_kind.Opt) (votes mock2)))


let test_wal_double_crash_still_no_double_vote () =
  (* Crash twice in a row: the restored vote slots must survive the second
     restart too (the recovery path re-persists them). *)
  let wal = Wal.create () in
  let boot () =
    let mock, env = Mock.create ~n:4 ~delta ~id:2 () in
    let node = Pipelined_node.create ~wal env in
    Mock.attach mock (fun ~src msg -> Pipelined_node.handle node ~src msg);
    Pipelined_node.start node;
    (mock, node)
  in
  let mock1, node1 = boot () in
  Pipelined_node.handle node1 ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  check_int "voted once" 1 (List.length (votes mock1));
  let _mock2, _node2 = boot () in
  (* Second crash immediately after restart, before any message. *)
  let mock3, node3 = boot () in
  let equivocating = B.block ~view:1 ~payload_id:888 ~parent:Block.genesis () in
  Pipelined_node.handle node3 ~src:0
    (Message.Propose { block = equivocating; cert = Cert.genesis });
  check_int "still no second vote" 0 (List.length (votes mock3))

let test_recovered_leader_does_not_fork () =
  (* A leader that recovers into its own view must not propose a block
     extending genesis with a stale justification. *)
  let wal = Wal.create () in
  let mock1, env1 = Mock.create ~n:4 ~delta ~id:0 () in
  let node1 = Pipelined_node.create ~wal env1 in
  Mock.attach mock1 (fun ~src msg -> Pipelined_node.handle node1 ~src msg);
  Pipelined_node.start node1;
  (* node 0 proposed for view 1 and crashes; restart. *)
  let mock2, env2 = Mock.create ~n:4 ~delta ~id:0 () in
  let node2 = Pipelined_node.create ~wal env2 in
  Mock.attach mock2 (fun ~src msg -> Pipelined_node.handle node2 ~src msg);
  Pipelined_node.start node2;
  check_int "no re-proposal on recovery" 0 (List.length (proposals mock2));
  check_int "still leader of its recorded view" 1 (Pipelined_node.current_view node2)

(* --- LSO variant -------------------------------------------------------------- *)

let make_lso ~id () =
  let mock, env = Mock.create ~n:4 ~delta ~id () in
  let node = Pipelined_node.create ~lso:true env in
  Mock.attach mock (fun ~src msg -> Pipelined_node.handle node ~src msg);
  Pipelined_node.start node;
  (mock, node)

let test_lso_skips_normal_after_opt () =
  (* An LSO leader that already optimistically proposed for view 2 stays
     silent when it enters view 2 via the certificate. *)
  let mock, node = make_lso ~id:1 () in
  Pipelined_node.handle node ~src:0
    (Message.Propose { block = blk 1; cert = Cert.genesis });
  deliver_peer_votes node ~kind:Vote_kind.Normal ~skip:1 (blk 1);
  check_int "entered view 2" 2 (Pipelined_node.current_view node);
  let normals_v2 =
    List.filter_map
      (function `Normal (b, _) when b.Block.view = 2 -> Some b | _ -> None)
      (proposals mock)
  in
  check_int "no normal proposal after the optimistic one" 0
    (List.length normals_v2);
  check_int "the optimistic proposal went out" 1
    (List.length
       (List.filter_map (function `Opt b -> Some b | _ -> None) (proposals mock)))

let test_lso_still_proposes_without_opt () =
  (* Entering a view it never optimistically proposed for, an LSO leader
     proposes normally (it is speaking for the first time). *)
  let mock, node = make_lso ~id:1 () in
  Pipelined_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  let normals_v2 =
    List.filter_map
      (function `Normal (b, _) when b.Block.view = 2 -> Some b | _ -> None)
      (proposals mock)
  in
  check_int "first-time proposal sent" 1 (List.length normals_v2)

(* --- Simple Moonshot ----------------------------------------------------------- *)

let test_s_leader_proposes_at_start () =
  let mock, _node = make_simple ~id:0 () in
  match proposals mock with
  | [ `Normal (block, cert) ] ->
      check_int "view 1 block" 1 block.Block.view;
      check_int "genesis justification" 0 cert.Cert.view
  | _ -> Alcotest.fail "leader should propose at start"

let test_s_votes_once_only () =
  (* One vote per view even when both the optimistic and the normal
     proposal arrive (Figure 1: "votes once using one of the rules"). *)
  let mock, node = make_simple ~id:3 () in
  Simple_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  Simple_node.handle node ~src:1 (Message.Opt_propose { block = blk 2 });
  Simple_node.handle node ~src:1 (Message.Propose { block = blk 2; cert = cert_of 1 });
  check_int "exactly one vote" 1 (List.length (votes mock))

let test_s_lock_only_updates_on_view_entry () =
  let _mock, node = make_simple ~id:3 () in
  (* Jump to view 4 via a TC; lock is still genesis. *)
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 3; lock = None }))
    [ 0; 1; 2 ];
  check_int "in view 4" 4 (Simple_node.current_view node);
  check_int "lock still genesis" 0 (Simple_node.Protocol.lock_view node);
  (* A stale certificate arriving mid-view must NOT move the lock... *)
  Simple_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  check_int "lock unchanged mid-view" 0 (Simple_node.Protocol.lock_view node);
  (* ...but is adopted at the next view entry. *)
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 4; lock = None }))
    [ 0; 1; 2 ];
  check_int "lock updated on entering view 5" 1 (Simple_node.Protocol.lock_view node)

let test_s_status_sent_when_lock_stale () =
  let mock, node = make_simple ~id:3 () in
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 2 ];
  (* Entering view 2 with a genesis lock (view 0 < 1): status to leader 1. *)
  check "status unicast to new leader" true
    (List.exists
       (function 1, Message.Status { view = 2; _ } -> true | _ -> false)
       (Mock.unicasts mock))

let test_s_no_status_when_lock_fresh () =
  let mock, node = make_simple ~id:3 () in
  Simple_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  check "no status when lock is for v - 1" true
    (not
       (List.exists
          (function _, Message.Status _ -> true | _ -> false)
          (Mock.unicasts mock)))

let test_s_leader_waits_2delta_on_tc_entry () =
  (* Node 1 leads view 2 but enters it via TC: it must wait up to 2 delta
     for the previous view's certificate before proposing. *)
  let mock, node = make_simple ~id:1 () in
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 2; 3 ];
  check_int "entered view 2" 2 (Simple_node.current_view node);
  let view2_proposals () =
    List.filter_map
      (function `Normal (b, c) when b.Block.view = 2 -> Some (b, c) | _ -> None)
      (proposals mock)
  in
  check_int "no proposal yet" 0 (List.length (view2_proposals ()));
  Mock.advance mock ~to_:(Mock.sent mock |> fun _ -> 2. *. delta);
  match view2_proposals () with
  | [ (block, cert) ] ->
      check "extends highest known cert (genesis)" true
        (Block.extends_hash block ~parent_hash:cert.Cert.block.Block.hash)
  | _ -> Alcotest.fail "expected the 2-delta fallback proposal"

let test_s_leader_proposes_early_on_cert () =
  (* Same as above, but the missing certificate arrives before 2 delta: the
     leader proposes immediately, extending it. *)
  let mock, node = make_simple ~id:1 () in
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 2; 3 ];
  Simple_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  let v2 =
    List.filter_map
      (function `Normal (b, c) when b.Block.view = 2 -> Some (b, c) | _ -> None)
      (proposals mock)
  in
  match v2 with
  | [ (block, cert) ] ->
      check_int "proposed before the 2-delta deadline" 1 cert.Cert.view;
      check "extends the certified block" true
        (Block.extends_hash block ~parent_hash:(blk 1).Block.hash)
  | _ -> Alcotest.fail "expected an early proposal"

let test_s_tc_multicast_on_entry () =
  (* Simple Moonshot multicasts the TC it entered by (Pipelined unicasts). *)
  let mock, node = make_simple ~id:3 () in
  List.iter
    (fun src -> Simple_node.handle node ~src (Message.Timeout { view = 1; lock = None }))
    [ 0; 1; 2 ];
  check "TC multicast" true
    (List.exists
       (function Message.Tc_gossip tc -> tc.Tc.view = 1 | _ -> false)
       (Mock.multicasts mock))

let test_s_timer_is_5_delta () =
  let mock, _node = make_simple ~id:3 () in
  Mock.advance mock ~to_:(4.9 *. delta);
  check_int "silent before 5 delta" 0 (List.length (timeouts mock));
  Mock.advance mock ~to_:(5. *. delta);
  check_int "timeout at 5 delta" 1 (List.length (timeouts mock))

let test_s_weak_quorum_triggers_timeout () =
  let mock, node = make_simple ~id:3 () in
  Simple_node.handle node ~src:0 (Message.Timeout { view = 1; lock = None });
  check_int "one is not enough" 0 (List.length (timeouts mock));
  Simple_node.handle node ~src:1 (Message.Timeout { view = 1; lock = None });
  check_int "f+1 triggers own timeout" 1 (List.length (timeouts mock))

let test_s_commit_two_chain () =
  let mock, node = make_simple ~id:3 () in
  Simple_node.handle node ~src:0 (Message.Cert_gossip (cert_of 1));
  Simple_node.handle node ~src:0 (Message.Cert_gossip (cert_of 2));
  check_int "committed one" 1 (Simple_node.committed node);
  check "it is block 1" true
    (match Mock.committed mock with [ b ] -> Block.equal b (blk 1) | _ -> false)

let () =
  Alcotest.run "nodes"
    [
      ( "pipelined",
        [
          Alcotest.test_case "leader proposes at start" `Quick
            test_p_leader_proposes_at_start;
          Alcotest.test_case "non-leader quiet" `Quick test_p_nonleader_quiet_at_start;
          Alcotest.test_case "votes on valid proposal" `Quick
            test_p_votes_on_valid_proposal;
          Alcotest.test_case "optimistic propose on vote" `Quick
            test_p_vote_then_opt_propose_as_next_leader;
          Alcotest.test_case "no double vote" `Quick test_p_no_double_vote_on_redelivery;
          Alcotest.test_case "rejects wrong leader" `Quick test_p_rejects_wrong_leader;
          Alcotest.test_case "cert advances + gossips" `Quick
            test_p_cert_advances_view_and_gossips;
          Alcotest.test_case "opt vote with lock" `Quick
            test_p_opt_vote_when_locked_on_parent;
          Alcotest.test_case "opt proposal buffered" `Quick
            test_p_opt_vote_buffered_until_lock;
          Alcotest.test_case "opt then normal same block" `Quick
            test_p_opt_then_normal_same_block;
          Alcotest.test_case "no normal vote after equivocating opt" `Quick
            test_p_no_normal_vote_after_equivocating_opt;
          Alcotest.test_case "cert from votes" `Quick test_p_forms_cert_from_votes;
          Alcotest.test_case "vote kinds do not mix" `Quick
            test_p_opt_and_normal_certs_do_not_mix;
          Alcotest.test_case "timeout carries lock" `Quick
            test_p_timer_expiry_sends_timeout_with_lock;
          Alcotest.test_case "timer is 3 delta" `Quick test_p_timer_not_fired_before_3_delta;
          Alcotest.test_case "bracha amplification" `Quick test_p_bracha_amplification;
          Alcotest.test_case "TC advances + unicast" `Quick
            test_p_tc_formation_advances_and_unicasts;
          Alcotest.test_case "fallback proposal" `Quick
            test_p_fallback_proposal_as_new_leader;
          Alcotest.test_case "fallback vote" `Quick test_p_fallback_vote;
          Alcotest.test_case "timeout blocks voting" `Quick
            test_p_timeout_blocks_votes_in_view;
          Alcotest.test_case "two-chain commit" `Quick test_p_two_chain_commit;
          Alcotest.test_case "indirect ancestor commit" `Quick
            test_p_indirect_commit_of_ancestors;
          Alcotest.test_case "gap blocks commit" `Quick
            test_p_nonconsecutive_certs_do_not_commit;
          Alcotest.test_case "normal after opt proposal" `Quick
            test_p_normal_after_opt_proposal_same_block;
        ] );
      ( "view-sync",
        [
          Alcotest.test_case "future-cert jump" `Quick test_p_view_jump_on_future_cert;
          Alcotest.test_case "stale proposal" `Quick test_p_stale_proposal_ignored;
          Alcotest.test_case "lock via timeout" `Quick test_p_timeout_carries_lock_rule;
          Alcotest.test_case "late cert after TC" `Quick
            test_p_late_cert_enables_normal_vote_after_tc;
          Alcotest.test_case "fb TC view checked" `Quick
            test_p_fb_proposal_wrong_tc_view_rejected;
          Alcotest.test_case "simple votes after view change" `Quick
            test_s_votes_again_after_view_change;
        ] );
      ( "commit-moonshot",
        [
          Alcotest.test_case "commit vote on cert" `Quick test_c_commit_vote_on_cert;
          Alcotest.test_case "quorum commits" `Quick test_c_quorum_of_commit_votes_commits;
          Alcotest.test_case "below quorum holds" `Quick test_c_no_commit_below_quorum;
          Alcotest.test_case "timeout withholds commit vote" `Quick
            test_c_no_commit_vote_after_timeout;
          Alcotest.test_case "pipelined ignores commit votes" `Quick
            test_c_plain_pipelined_ignores_commit_votes;
        ] );
      ( "sync",
        [
          Alcotest.test_case "serves requests" `Quick test_sync_serves_requests;
          Alcotest.test_case "unknown request ignored" `Quick
            test_sync_ignores_unknown_requests;
          Alcotest.test_case "fetches missing ancestors" `Quick
            test_sync_requests_missing_ancestors;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "no double vote" `Quick test_wal_prevents_double_vote;
          Alcotest.test_case "lock + view restored" `Quick test_wal_restores_lock_and_view;
          Alcotest.test_case "timeout state survives" `Quick
            test_wal_timeout_state_survives;
          Alcotest.test_case "double crash" `Quick
            test_wal_double_crash_still_no_double_vote;
          Alcotest.test_case "recovered leader silent" `Quick
            test_recovered_leader_does_not_fork;
        ] );
      ( "lso",
        [
          Alcotest.test_case "skips re-proposal" `Quick test_lso_skips_normal_after_opt;
          Alcotest.test_case "first proposal kept" `Quick
            test_lso_still_proposes_without_opt;
        ] );
      ( "simple",
        [
          Alcotest.test_case "leader proposes at start" `Quick
            test_s_leader_proposes_at_start;
          Alcotest.test_case "votes once only" `Quick test_s_votes_once_only;
          Alcotest.test_case "lock updates on entry only" `Quick
            test_s_lock_only_updates_on_view_entry;
          Alcotest.test_case "status on stale lock" `Quick test_s_status_sent_when_lock_stale;
          Alcotest.test_case "no status when fresh" `Quick test_s_no_status_when_lock_fresh;
          Alcotest.test_case "2-delta proposal wait" `Quick
            test_s_leader_waits_2delta_on_tc_entry;
          Alcotest.test_case "early proposal on cert" `Quick
            test_s_leader_proposes_early_on_cert;
          Alcotest.test_case "TC multicast on entry" `Quick test_s_tc_multicast_on_entry;
          Alcotest.test_case "timer is 5 delta" `Quick test_s_timer_is_5_delta;
          Alcotest.test_case "weak quorum timeout" `Quick test_s_weak_quorum_triggers_timeout;
          Alcotest.test_case "two-chain commit" `Quick test_s_commit_two_chain;
        ] );
    ]
