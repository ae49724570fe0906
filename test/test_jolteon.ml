(* Behavioural tests for the Jolteon baseline: vote aggregation at the next
   leader, 2-chain commit with consecutive rounds, quadratic view change. *)

open Bft_types
open Jolteon
module B = Test_support.Builders
module Mock = Test_support.Mock_env
module Cert = Moonshot.Cert
module Tc = Moonshot.Tc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let chain = B.chain 5
let blk v = List.nth chain (v - 1)
let qc_of v = B.cert (blk v)
let delta = 100.

let make ~id () =
  let mock, env = Mock.create ~n:4 ~delta ~id () in
  let node = Jolteon_node.create env in
  Mock.attach mock (fun ~src msg -> Jolteon_node.handle node ~src msg);
  Jolteon_node.start node;
  (mock, node)

let unicast_votes mock =
  List.filter_map
    (function dst, Jolteon_msg.Vote { block } -> Some (dst, block) | _ -> None)
    (Mock.unicasts mock)

let multicast_timeouts mock =
  List.filter_map
    (function
      | Jolteon_msg.Timeout { round; high_qc } -> Some (round, high_qc) | _ -> None)
    (Mock.multicasts mock)

let proposals mock =
  List.filter_map
    (function
      | Jolteon_msg.Propose { block; qc; tc } -> Some (block, qc, tc) | _ -> None)
    (Mock.multicasts mock)

let test_leader_proposes_at_start () =
  let mock, _node = make ~id:0 () in
  match proposals mock with
  | [ (block, qc, None) ] ->
      check_int "round 1" 1 block.Block.view;
      check_int "genesis qc" 0 qc.Cert.view
  | _ -> Alcotest.fail "leader of round 1 should propose once"

let test_vote_goes_to_next_leader () =
  let mock, node = make ~id:2 () in
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Propose { block = blk 1; qc = Cert.genesis; tc = None });
  match unicast_votes mock with
  | [ (dst, b) ] ->
      check_int "vote unicast to leader of round 2" 1 dst;
      check "for the proposed block" true (Block.equal b (blk 1))
  | _ -> Alcotest.fail "expected exactly one unicast vote"

let test_vote_not_multicast () =
  let mock, node = make ~id:2 () in
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Propose { block = blk 1; qc = Cert.genesis; tc = None });
  check "votes are never multicast in Jolteon" true
    (not
       (List.exists
          (function Jolteon_msg.Vote _ -> true | _ -> false)
          (Mock.multicasts mock)))

let test_no_double_vote () =
  let mock, node = make ~id:2 () in
  let msg = Jolteon_msg.Propose { block = blk 1; qc = Cert.genesis; tc = None } in
  Jolteon_node.handle node ~src:0 msg;
  Jolteon_node.handle node ~src:0 msg;
  check_int "one vote" 1 (List.length (unicast_votes mock))

let test_aggregator_forms_qc_and_proposes () =
  (* Node 1 leads round 2: three votes for the round-1 block let it form the
     QC, advance and propose its own block carrying that QC. *)
  let mock, node = make ~id:1 () in
  List.iter
    (fun src -> Jolteon_node.handle node ~src (Jolteon_msg.Vote { block = blk 1 }))
    [ 0; 2; 3 ];
  check_int "advanced to round 2" 2 (Jolteon_node.Protocol.current_view node);
  match proposals mock with
  | [ (block, qc, None) ] ->
      check_int "round 2 block" 2 block.Block.view;
      check_int "carries QC for round 1" 1 qc.Cert.view;
      check "extends the certified block" true
        (Block.extends_hash block ~parent_hash:(blk 1).Block.hash)
  | _ -> Alcotest.fail "aggregator should propose with the fresh QC"

let test_nonaggregator_votes_dont_certify () =
  (* A replica that is not the next leader never receives votes in a real
     run; even if it did, two votes are below quorum. *)
  let _mock, node = make ~id:2 () in
  List.iter
    (fun src -> Jolteon_node.handle node ~src (Jolteon_msg.Vote { block = blk 1 }))
    [ 0; 3 ];
  check_int "no QC from two votes" 1 (Jolteon_node.Protocol.current_view node)

let test_commit_on_consecutive_qcs () =
  let mock, node = make ~id:2 () in
  (* QCs travel inside proposals: round-2 proposal carries QC_1, round-3
     proposal carries QC_2; the latter commits block 1. *)
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 2; qc = qc_of 1; tc = None });
  check_int "nothing committed yet" 0 (Jolteon_node.committed node);
  Jolteon_node.handle node ~src:2
    (Jolteon_msg.Propose { block = blk 3; qc = qc_of 2; tc = None });
  check_int "block 1 committed" 1 (Jolteon_node.committed node);
  check "committed the right block" true
    (match Mock.committed mock with [ b ] -> Block.equal b (blk 1) | _ -> false)

let test_no_commit_on_gap () =
  let _mock, node = make ~id:2 () in
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 2; qc = qc_of 1; tc = None });
  (* A QC for round 3 extending a round-1 parent: no consecutive pair. *)
  let orphan = B.block ~proposer:3 ~view:4 ~parent:(blk 1) () in
  let qc_orphan = B.cert orphan in
  Jolteon_node.handle node ~src:3
    (Jolteon_msg.Propose
       { block = B.block ~proposer:0 ~view:5 ~parent:orphan (); qc = qc_orphan; tc = None });
  check_int "no commit without consecutive rounds" 0 (Jolteon_node.committed node)

let test_timer_is_4_delta () =
  let mock, _node = make ~id:2 () in
  Mock.advance mock ~to_:(3.9 *. delta);
  check_int "quiet before 4 delta" 0 (List.length (multicast_timeouts mock));
  Mock.advance mock ~to_:(4. *. delta);
  match multicast_timeouts mock with
  | [ (1, qc) ] -> check_int "timeout carries high QC" 0 qc.Cert.view
  | _ -> Alcotest.fail "expected a round-1 timeout at 4 delta"

let test_tc_lets_new_leader_propose () =
  (* Node 1 leads round 2; a quorum of timeouts for round 1 forms a TC and
     the new leader proposes with the TC attached. *)
  let mock, node = make ~id:1 () in
  List.iter
    (fun src ->
      Jolteon_node.handle node ~src
        (Jolteon_msg.Timeout { round = 1; high_qc = Cert.genesis }))
    [ 0; 2; 3 ];
  check_int "entered round 2" 2 (Jolteon_node.Protocol.current_view node);
  match proposals mock with
  | [ (block, qc, Some tc) ] ->
      check_int "round 2" 2 block.Block.view;
      check_int "extends high QC (genesis)" 0 qc.Cert.view;
      check_int "TC for round 1" 1 tc.Tc.view
  | _ -> Alcotest.fail "expected a TC-justified proposal"

let test_replica_votes_on_tc_proposal () =
  let mock, node = make ~id:2 () in
  List.iter
    (fun src ->
      Jolteon_node.handle node ~src
        (Jolteon_msg.Timeout { round = 1; high_qc = Cert.genesis }))
    [ 0; 1; 3 ];
  let tc = B.tc ~high_cert:Cert.genesis 1 in
  let fb = B.block ~proposer:1 ~view:2 ~parent:Block.genesis () in
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = fb; qc = Cert.genesis; tc = Some tc });
  check_int "voted on TC-backed proposal" 1 (List.length (unicast_votes mock))

let test_replica_rejects_low_qc_after_tc () =
  (* After a TC whose high QC is for round 1, a proposal extending genesis
     (round-0 QC) is stale and must be rejected. *)
  let mock, node = make ~id:2 () in
  List.iter
    (fun src ->
      Jolteon_node.handle node ~src
        (Jolteon_msg.Timeout { round = 1; high_qc = qc_of 1 }))
    [ 0; 1; 3 ];
  let tc = B.tc ~high_cert:(qc_of 1) 1 in
  let stale = B.block ~proposer:1 ~view:2 ~parent:Block.genesis () in
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = stale; qc = Cert.genesis; tc = Some tc });
  check_int "stale proposal rejected" 0 (List.length (unicast_votes mock))

let test_bracha_amplification () =
  let mock, node = make ~id:2 () in
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Timeout { round = 1; high_qc = Cert.genesis });
  check_int "single timeout ignored" 0 (List.length (multicast_timeouts mock));
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Timeout { round = 1; high_qc = Cert.genesis });
  check_int "f+1 timeouts joined" 1 (List.length (multicast_timeouts mock))

let test_timeout_stops_voting () =
  let mock, node = make ~id:2 () in
  Mock.advance mock ~to_:(4. *. delta);
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Propose { block = blk 1; qc = Cert.genesis; tc = None });
  check_int "no vote after timing out" 0 (List.length (unicast_votes mock))

let test_old_round_proposal_rejected () =
  let mock, node = make ~id:2 () in
  (* Jump to round 3 via a QC for round 2. *)
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 3; qc = qc_of 2; tc = None });
  Mock.clear_outbox mock;
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Propose { block = blk 1; qc = Cert.genesis; tc = None });
  check_int "past-round proposal ignored" 0 (List.length (unicast_votes mock))



let test_jolteon_sync_serves_blocks () =
  let mock, node = make ~id:2 () in
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 2; qc = qc_of 1; tc = None });
  Jolteon_node.handle node ~src:3
    (Jolteon_msg.Block_request { hash = (blk 2).Block.hash });
  check "serves chain segment" true
    (List.exists
       (function
         | 3, Jolteon_msg.Blocks_response { blocks } ->
             List.exists (Block.equal (blk 2)) blocks
         | _ -> false)
       (Mock.unicasts mock))

let test_jolteon_fetches_missing_ancestors () =
  (* Consecutive QCs for rounds 3 and 4 arrive at a node missing blocks
     1-2: the deferred commit triggers a block request, and the response
     completes it. *)
  let mock, node = make ~id:2 () in
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Propose { block = blk 4; qc = qc_of 3; tc = None });
  Jolteon_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 5; qc = qc_of 4; tc = None });
  check "request sent for the gap" true
    (List.exists
       (function _, Jolteon_msg.Block_request _ -> true | _ -> false)
       (Mock.unicasts mock));
  Jolteon_node.handle node ~src:0
    (Jolteon_msg.Blocks_response { blocks = [ blk 1; blk 2 ] });
  check_int "deferred commit completes" 3 (Jolteon_node.committed node)

(* --- HotStuff (3-chain) baseline ---------------------------------------------- *)

let make_hs ~id () =
  let mock, env = Mock.create ~n:4 ~delta ~id () in
  let node = Hotstuff.Hotstuff_node.create env in
  Mock.attach mock (fun ~src msg -> Hotstuff.Hotstuff_node.handle node ~src msg);
  Hotstuff.Hotstuff_node.start node;
  (mock, node)

let test_hotstuff_needs_three_chain () =
  let _mock, node = make_hs ~id:2 () in
  Hotstuff.Hotstuff_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 2; qc = qc_of 1; tc = None });
  Hotstuff.Hotstuff_node.handle node ~src:2
    (Jolteon_msg.Propose { block = blk 3; qc = qc_of 2; tc = None });
  (* Two consecutive QCs commit in Jolteon but NOT in HotStuff. *)
  check_int "two-chain does not commit" 0 (Hotstuff.Hotstuff_node.committed node);
  Hotstuff.Hotstuff_node.handle node ~src:3
    (Jolteon_msg.Propose { block = blk 4; qc = qc_of 3; tc = None });
  check_int "three-chain commits the base" 1 (Hotstuff.Hotstuff_node.committed node)

let test_hotstuff_gap_blocks_commit () =
  let _mock, node = make_hs ~id:2 () in
  Hotstuff.Hotstuff_node.handle node ~src:1
    (Jolteon_msg.Propose { block = blk 2; qc = qc_of 1; tc = None });
  (* Skip view 3's QC: 1,2,4 are not consecutive. *)
  let orphan = B.block ~proposer:3 ~view:4 ~parent:(blk 2) () in
  let qc_orphan = B.cert orphan in
  Hotstuff.Hotstuff_node.handle node ~src:0
    (Jolteon_msg.Propose
       { block = B.block ~proposer:0 ~view:5 ~parent:orphan (); qc = qc_orphan; tc = None });
  check_int "non-consecutive chain holds" 0 (Hotstuff.Hotstuff_node.committed node)

let test_hotstuff_commits_ancestors () =
  let _mock, node = make_hs ~id:2 () in
  List.iter
    (fun v ->
      Hotstuff.Hotstuff_node.handle node ~src:(v mod 4)
        (Jolteon_msg.Propose { block = blk v; qc = qc_of (v - 1); tc = None }))
    [ 2; 3; 4; 5 ];
  (* QCs 1..4 recorded: windows (1,2,3) and (2,3,4) commit blocks 1 and 2. *)
  check_int "rolling three-chains" 2 (Hotstuff.Hotstuff_node.committed node)

let () =
  Alcotest.run "jolteon"
    [
      ( "steady-state",
        [
          Alcotest.test_case "leader proposes at start" `Quick
            test_leader_proposes_at_start;
          Alcotest.test_case "vote unicast to next leader" `Quick
            test_vote_goes_to_next_leader;
          Alcotest.test_case "votes not multicast" `Quick test_vote_not_multicast;
          Alcotest.test_case "no double vote" `Quick test_no_double_vote;
          Alcotest.test_case "aggregator forms QC" `Quick
            test_aggregator_forms_qc_and_proposes;
          Alcotest.test_case "below quorum no QC" `Quick
            test_nonaggregator_votes_dont_certify;
          Alcotest.test_case "2-chain commit" `Quick test_commit_on_consecutive_qcs;
          Alcotest.test_case "no commit on gap" `Quick test_no_commit_on_gap;
          Alcotest.test_case "old round rejected" `Quick test_old_round_proposal_rejected;
        ] );
      ( "view-change",
        [
          Alcotest.test_case "timer is 4 delta" `Quick test_timer_is_4_delta;
          Alcotest.test_case "TC proposal" `Quick test_tc_lets_new_leader_propose;
          Alcotest.test_case "vote on TC proposal" `Quick test_replica_votes_on_tc_proposal;
          Alcotest.test_case "stale QC rejected" `Quick test_replica_rejects_low_qc_after_tc;
          Alcotest.test_case "bracha amplification" `Quick test_bracha_amplification;
          Alcotest.test_case "timeout stops voting" `Quick test_timeout_stops_voting;
        ] );
      ( "sync",
        [
          Alcotest.test_case "serves blocks" `Quick test_jolteon_sync_serves_blocks;
          Alcotest.test_case "fetches missing" `Quick test_jolteon_fetches_missing_ancestors;
        ] );
      ( "hotstuff",
        [
          Alcotest.test_case "three-chain rule" `Quick test_hotstuff_needs_three_chain;
          Alcotest.test_case "gap blocks commit" `Quick test_hotstuff_gap_blocks_commit;
          Alcotest.test_case "rolling windows" `Quick test_hotstuff_commits_ancestors;
        ] );
    ]
