open Bft_types
open Moonshot
module B = Test_support.Builders

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A canonical chain for the vote-rule tests: views 1..5 on top of genesis. *)
let chain = B.chain 5
let blk v = List.nth chain (v - 1)
let cert_of v = B.cert (blk v)

(* --- Cert ------------------------------------------------------------------ *)

let test_cert_well_formed () =
  let c = cert_of 2 in
  check_int "view" 2 c.Cert.view;
  check "certifies child" true (Cert.certifies_parent_of c (blk 3));
  check "does not certify grandchild" false (Cert.certifies_parent_of c (blk 4))

let test_cert_view_mismatch_rejected () =
  check "cert view must match block view" true
    (try
       ignore (Cert.make ~kind:Vote_kind.Normal ~view:9 ~block:(blk 1) ~signers:3);
       false
     with Invalid_argument _ -> true)

let test_cert_rank_by_view_only () =
  let opt2 = B.cert ~kind:Vote_kind.Opt (blk 2) in
  let fb2 = B.cert ~kind:Vote_kind.Fallback (blk 2) in
  let n3 = cert_of 3 in
  check "same view same rank regardless of kind" true
    (Cert.rank_geq opt2 fb2 && Cert.rank_geq fb2 opt2);
  check "higher view higher rank" true (Cert.rank_gt n3 opt2);
  check "rank_geq reflexive" true (Cert.rank_geq opt2 opt2)

let test_cert_identity () =
  let a = B.cert ~kind:Vote_kind.Opt (blk 2) in
  let b = B.cert ~kind:Vote_kind.Opt ~signers:4 (blk 2) in
  let c = B.cert ~kind:Vote_kind.Normal (blk 2) in
  check "identity ignores signer count" true (Cert.equal_id a b);
  check "identity distinguishes kind" false (Cert.equal_id a c)

let test_cert_genesis () =
  check_int "genesis cert view 0" 0 Cert.genesis.Cert.view;
  check "genesis cert certifies view-1 blocks" true
    (Cert.certifies_parent_of Cert.genesis (blk 1))

let test_cert_wire_size_linear () =
  let s10 = Cert.wire_size (B.cert ~signers:10 (blk 1)) in
  let s20 = Cert.wire_size (B.cert ~signers:20 (blk 1)) in
  check_int "linear in signers" (10 * (Wire_size.signature + Wire_size.node_id))
    (s20 - s10)

(* --- Tc -------------------------------------------------------------------- *)

let test_tc_high_cert_view () =
  check_int "none is -1" (-1) (Tc.high_cert_view (B.tc 3));
  check_int "some is its view" 2 (Tc.high_cert_view (B.tc ~high_cert:(cert_of 2) 3))

let test_tc_validation () =
  check "needs signers" true
    (try
       ignore (Tc.make ~view:1 ~high_cert:None ~signers:0);
       false
     with Invalid_argument _ -> true);
  check "needs positive view" true
    (try
       ignore (Tc.make ~view:0 ~high_cert:None ~signers:3);
       false
     with Invalid_argument _ -> true)

let test_tc_wire_size_linear_not_quadratic () =
  (* The paper's implementation keeps TCs linear: per-timeout rank claims
     plus one full certificate. *)
  let tc_small = B.tc ~high_cert:(B.cert ~signers:67 (blk 1)) ~signers:67 2 in
  let tc_large = B.tc ~high_cert:(B.cert ~signers:134 (blk 1)) ~signers:134 2 in
  let s1 = Tc.wire_size tc_small and s2 = Tc.wire_size tc_large in
  (* Doubling the quorum should roughly double the size (linear), not
     quadruple it (quadratic). *)
  check "roughly linear growth" true
    (float_of_int s2 /. float_of_int s1 < 2.5)

(* --- Message sizes ------------------------------------------------------------ *)

let test_votes_are_small () =
  let v = Message.Vote { kind = Vote_kind.Opt; block = blk 1 } in
  check "vote is small" true (Message.size v < 300)

let test_proposal_carries_payload () =
  let payload = Payload.make ~id:7 ~size_bytes:1_800_000 in
  let big =
    Block.create ~parent:Block.genesis ~view:1 ~proposer:0 ~payload
  in
  let m = Message.Opt_propose { block = big } in
  check "proposal dominated by payload" true (Message.size m > 1_800_000);
  let empty = Message.Opt_propose { block = blk 1 } in
  check "empty proposal small" true (Message.size empty < 300)

let test_fb_proposal_biggest () =
  let cert = B.cert ~signers:67 (blk 1) in
  let tc = B.tc ~high_cert:cert ~signers:67 1 in
  let fb = Message.Fb_propose { block = blk 2; cert; tc } in
  let normal = Message.Propose { block = blk 2; cert } in
  check "fb-proposal bigger than normal" true (Message.size fb > Message.size normal)

let test_timeout_size_by_protocol () =
  let simple = Message.Timeout { view = 3; lock = None } in
  let pipelined = Message.Timeout { view = 3; lock = Some (cert_of 2) } in
  check "pipelined timeout carries lock" true
    (Message.size pipelined > Message.size simple)

(* --- Safety rules: Simple Moonshot --------------------------------------------- *)

let test_simple_opt_vote_happy () =
  check "votes with matching lock" true
    (Safety_rules.simple_opt_vote ~lock:(cert_of 2) ~view:3 ~voted:false
       ~timed_out:false ~block:(blk 3))

let test_simple_opt_vote_rejections () =
  let vote ?(lock = cert_of 2) ?(voted = false) ?(timed_out = false)
      ?(block = blk 3) () =
    Safety_rules.simple_opt_vote ~lock ~view:3 ~voted ~timed_out ~block
  in
  check "already voted" false (vote ~voted:true ());
  check "timed out" false (vote ~timed_out:true ());
  check "stale lock" false (vote ~lock:(cert_of 1) ());
  check "lock for other branch" false
    (vote ~lock:(B.cert (B.block ~view:2 ~payload_id:9 ~parent:(blk 1) ())) ());
  check "block for wrong view" false (vote ~block:(blk 4) ())

let test_simple_normal_vote_happy () =
  check "cert at lock rank accepted" true
    (Safety_rules.simple_normal_vote ~lock:(cert_of 2) ~view:3 ~voted:false
       ~timed_out:false ~block:(blk 3) ~cert:(cert_of 2));
  (* Certificate ranking strictly above the lock also accepted: the node is
     behind. *)
  check "higher-ranked cert accepted" true
    (Safety_rules.simple_normal_vote ~lock:(cert_of 1) ~view:3 ~voted:false
       ~timed_out:false ~block:(blk 3) ~cert:(cert_of 2))

let test_simple_normal_vote_rejections () =
  let vote ?(lock = cert_of 2) ?(voted = false) ?(timed_out = false)
      ?(block = blk 3) ?(cert = cert_of 2) () =
    Safety_rules.simple_normal_vote ~lock ~view:3 ~voted ~timed_out ~block ~cert
  in
  check "cert below lock" false (vote ~lock:(cert_of 2) ~cert:(cert_of 1) ());
  check "block does not extend cert" false (vote ~block:(blk 4) ());
  check "already voted" false (vote ~voted:true ());
  check "timed out" false (vote ~timed_out:true ())

(* --- Safety rules: Pipelined Moonshot -------------------------------------------- *)

let test_pipelined_opt_vote_happy () =
  check "clean state votes" true
    (Safety_rules.pipelined_opt_vote ~lock:(cert_of 2) ~view:3 ~timeout_view:0
       ~voted_opt:None ~voted_main:false ~block:(blk 3));
  (* A timeout for an old view does not block optimistic voting. *)
  check "old timeout ok" true
    (Safety_rules.pipelined_opt_vote ~lock:(cert_of 2) ~view:3 ~timeout_view:1
       ~voted_opt:None ~voted_main:false ~block:(blk 3))

let test_pipelined_opt_vote_rejections () =
  let vote ?(lock = cert_of 2) ?(timeout_view = 0) ?(voted_opt = None)
      ?(voted_main = false) ?(block = blk 3) () =
    Safety_rules.pipelined_opt_vote ~lock ~view:3 ~timeout_view ~voted_opt
      ~voted_main ~block
  in
  (* Figure 3 condition (i): timeout_view < v - 1.  A timeout for v-1 means
     the node has given up on certifying v-1's block. *)
  check "timeout for previous view blocks opt vote" false (vote ~timeout_view:2 ());
  check "timeout for current view blocks opt vote" false (vote ~timeout_view:3 ());
  check "already opt voted" false (vote ~voted_opt:(Some (blk 3)) ());
  check "already main voted" false (vote ~voted_main:true ());
  check "lock not on parent" false (vote ~lock:(cert_of 1) ())

let test_pipelined_normal_vote_happy () =
  check "fresh normal vote" true
    (Safety_rules.pipelined_normal_vote ~view:3 ~timeout_view:0 ~voted_opt:None
       ~voted_main:false ~block:(blk 3) ~cert:(cert_of 2));
  (* MUST also normal-vote after an optimistic vote for the same block
     (Section IV-A), so both certificate kinds can complete. *)
  check "same-block opt vote does not block" true
    (Safety_rules.pipelined_normal_vote ~view:3 ~timeout_view:0
       ~voted_opt:(Some (blk 3)) ~voted_main:false ~block:(blk 3)
       ~cert:(cert_of 2));
  (* A timeout for v-1 blocks opt votes but not normal votes. *)
  check "timeout for v-1 still allows normal vote" true
    (Safety_rules.pipelined_normal_vote ~view:3 ~timeout_view:2 ~voted_opt:None
       ~voted_main:false ~block:(blk 3) ~cert:(cert_of 2))

let test_pipelined_normal_vote_rejections () =
  let equivocating = B.block ~view:3 ~payload_id:99 ~parent:(blk 2) () in
  let vote ?(timeout_view = 0) ?(voted_opt = None) ?(voted_main = false)
      ?(block = blk 3) ?(cert = cert_of 2) () =
    Safety_rules.pipelined_normal_vote ~view:3 ~timeout_view ~voted_opt
      ~voted_main ~block ~cert
  in
  check "timed out of current view" false (vote ~timeout_view:3 ());
  check "opt voted for equivocating block" false
    (vote ~voted_opt:(Some equivocating) ());
  check "already main voted" false (vote ~voted_main:true ());
  check "cert not for v-1" false (vote ~cert:(cert_of 1) ());
  check "does not extend cert" false (vote ~block:(blk 4) ())

let test_pipelined_fb_vote_happy () =
  let tc = B.tc ~high_cert:(cert_of 2) 2 in
  check "fallback extending the TC's high cert" true
    (Safety_rules.pipelined_fb_vote ~view:3 ~timeout_view:2 ~voted_main:false
       ~block:(blk 3) ~cert:(cert_of 2) ~tc);
  (* The voter's own lock is NOT consulted: a fallback for an older branch
     is accepted when justified by the TC (Section IV-B). *)
  let tc_low = B.tc ~high_cert:(cert_of 1) 2 in
  let fork = B.block ~view:3 ~payload_id:5 ~parent:(blk 1) () in
  check "fallback may extend below own lock" true
    (Safety_rules.pipelined_fb_vote ~view:3 ~timeout_view:0 ~voted_main:false
       ~block:fork ~cert:(cert_of 1) ~tc:tc_low);
  (* Allowed even after an opt vote for an equivocating block. *)
  check "fallback after equivocating opt vote" true
    (Safety_rules.pipelined_fb_vote ~view:3 ~timeout_view:0 ~voted_main:false
       ~block:(blk 3) ~cert:(cert_of 2) ~tc)

let test_pipelined_fb_vote_rejections () =
  let tc = B.tc ~high_cert:(cert_of 2) 2 in
  let vote ?(timeout_view = 0) ?(voted_main = false) ?(block = blk 3)
      ?(cert = cert_of 2) ?(tc = tc) () =
    Safety_rules.pipelined_fb_vote ~view:3 ~timeout_view ~voted_main ~block
      ~cert ~tc
  in
  check "timed out of current view" false (vote ~timeout_view:3 ());
  check "already main voted" false (vote ~voted_main:true ());
  check "tc for wrong view" false (vote ~tc:(B.tc ~high_cert:(cert_of 2) 1) ());
  (* The justifying certificate must rank at least as high as the TC's. *)
  let fork = B.block ~view:3 ~payload_id:5 ~parent:(blk 1) () in
  check "cert below TC's high cert" false (vote ~block:fork ~cert:(cert_of 1) ());
  check "does not extend cert" false (vote ~block:(blk 4) ())

(* --- Safety rules: Commit Moonshot ------------------------------------------------ *)

let test_precommit_rules () =
  check "direct: in an older view" true
    (Safety_rules.direct_precommit ~view:3 ~timeout_view:0 ~cert_view:3);
  check "direct: cert from the future" true
    (Safety_rules.direct_precommit ~view:3 ~timeout_view:0 ~cert_view:5);
  check "direct: already past the cert's view" false
    (Safety_rules.direct_precommit ~view:4 ~timeout_view:0 ~cert_view:3);
  check "direct: timed out of the cert's view" false
    (Safety_rules.direct_precommit ~view:3 ~timeout_view:3 ~cert_view:3);
  check "indirect: needs a commit-voted descendant" false
    (Safety_rules.indirect_precommit ~timeout_view:0 ~cert_view:3
       ~voted_descendant:false);
  check "indirect: fires with descendant" true
    (Safety_rules.indirect_precommit ~timeout_view:0 ~cert_view:3
       ~voted_descendant:true);
  check "indirect: blocked by timeout" false
    (Safety_rules.indirect_precommit ~timeout_view:3 ~cert_view:3
       ~voted_descendant:true)

(* --- Proposal validity -------------------------------------------------------------- *)

let test_valid_proposal_block () =
  let leader_of view = (view - 1) mod 4 in
  check "right leader right view" true
    (Safety_rules.valid_proposal_block ~leader_of ~view:3 (blk 3));
  check "wrong view" false
    (Safety_rules.valid_proposal_block ~leader_of ~view:4 (blk 3));
  let impostor = B.block ~proposer:1 ~view:3 ~parent:(blk 2) () in
  check "wrong proposer" false
    (Safety_rules.valid_proposal_block ~leader_of ~view:3 impostor)


let test_cpu_costs () =
  let open Message in
  let cpu_cost m =
    let a = [| Float.nan |] in
    Message.cpu_cost m a 0;
    a.(0)
  in
  let vote = Vote { kind = Vote_kind.Normal; block = blk 1 } in
  check "vote costs one verification" true
    (cpu_cost vote = Bft_types.Cpu_model.sig_verify_ms);
  let gossip = Cert_gossip (B.cert ~signers:67 (blk 1)) in
  check "gossiped cert is a cache hit, far below re-verification" true
    (cpu_cost gossip < Bft_types.Cpu_model.verify_signatures 67 /. 100.);
  let heavy =
    Block.create ~parent:Block.genesis ~view:1 ~proposer:0
      ~payload:(Payload.make ~id:1 ~size_bytes:1_000_000)
  in
  check "payload hashing dominates large proposals" true
    (cpu_cost (Opt_propose { block = heavy }) > 0.9);
  let fb =
    Fb_propose
      { block = blk 2; cert = B.cert ~signers:67 (blk 1);
        tc = B.tc ~signers:67 2 }
  in
  check "fallback proposals verify the fresh TC" true
    (cpu_cost fb > Bft_types.Cpu_model.verify_signatures 100)

(* --- Theory (Table I) ---------------------------------------------------------------- *)

let test_table1_shape () =
  check_int "eleven rows" 11 (List.length Theory.table1);
  check "moonshot rows present" true
    (List.exists (fun r -> r.Theory.name = "Commit Moonshot") Theory.table1)

let test_moonshot_rows () =
  let row name = List.find (fun r -> r.Theory.name = name) Theory.table1 in
  let moonshots =
    List.map row [ "Simple Moonshot"; "Pipelined Moonshot"; "Commit Moonshot" ]
  in
  check "all moonshot rows have period d" true
    (List.for_all (fun r -> r.Theory.min_block_period = "d") moonshots);
  check "all moonshot rows commit in 3d" true
    (List.for_all (fun r -> r.Theory.min_commit_latency = "3d") moonshots);
  check "all moonshot rows reorg resilient" true
    (List.for_all (fun r -> r.Theory.reorg_resilient) moonshots);
  let jolteon = row "Jolteon" in
  check "jolteon is 5d / 2d / not resilient" true
    (jolteon.Theory.min_commit_latency = "5d"
    && jolteon.Theory.min_block_period = "2d"
    && not jolteon.Theory.reorg_resilient)

let test_hops_constants () =
  check_int "moonshot commit hops" 3 Theory.moonshot_commit_hops;
  check_int "moonshot period hops" 1 Theory.moonshot_block_period_hops;
  check_int "jolteon commit hops" 5 Theory.jolteon_commit_hops;
  check_int "jolteon period hops" 2 Theory.jolteon_block_period_hops

let () =
  Alcotest.run "moonshot-core"
    [
      ( "cert",
        [
          Alcotest.test_case "well formed" `Quick test_cert_well_formed;
          Alcotest.test_case "view mismatch" `Quick test_cert_view_mismatch_rejected;
          Alcotest.test_case "rank by view" `Quick test_cert_rank_by_view_only;
          Alcotest.test_case "identity" `Quick test_cert_identity;
          Alcotest.test_case "genesis" `Quick test_cert_genesis;
          Alcotest.test_case "wire size" `Quick test_cert_wire_size_linear;
        ] );
      ( "tc",
        [
          Alcotest.test_case "high cert view" `Quick test_tc_high_cert_view;
          Alcotest.test_case "validation" `Quick test_tc_validation;
          Alcotest.test_case "linear wire size" `Quick
            test_tc_wire_size_linear_not_quadratic;
        ] );
      ( "message",
        [
          Alcotest.test_case "votes small" `Quick test_votes_are_small;
          Alcotest.test_case "payload dominates proposals" `Quick
            test_proposal_carries_payload;
          Alcotest.test_case "fb-proposal largest" `Quick test_fb_proposal_biggest;
          Alcotest.test_case "timeout sizes" `Quick test_timeout_size_by_protocol;
        ] );
      ( "simple-rules",
        [
          Alcotest.test_case "opt vote happy" `Quick test_simple_opt_vote_happy;
          Alcotest.test_case "opt vote rejections" `Quick test_simple_opt_vote_rejections;
          Alcotest.test_case "normal vote happy" `Quick test_simple_normal_vote_happy;
          Alcotest.test_case "normal vote rejections" `Quick
            test_simple_normal_vote_rejections;
        ] );
      ( "pipelined-rules",
        [
          Alcotest.test_case "opt vote happy" `Quick test_pipelined_opt_vote_happy;
          Alcotest.test_case "opt vote rejections" `Quick
            test_pipelined_opt_vote_rejections;
          Alcotest.test_case "normal vote happy" `Quick test_pipelined_normal_vote_happy;
          Alcotest.test_case "normal vote rejections" `Quick
            test_pipelined_normal_vote_rejections;
          Alcotest.test_case "fallback vote happy" `Quick test_pipelined_fb_vote_happy;
          Alcotest.test_case "fallback vote rejections" `Quick
            test_pipelined_fb_vote_rejections;
        ] );
      ( "commit-rules",
        [ Alcotest.test_case "pre-commit" `Quick test_precommit_rules ] );
      ("cpu", [ Alcotest.test_case "amortized costs" `Quick test_cpu_costs ]);
      ( "proposal-validity",
        [ Alcotest.test_case "leader and view" `Quick test_valid_proposal_block ] );
      ( "theory",
        [
          Alcotest.test_case "table shape" `Quick test_table1_shape;
          Alcotest.test_case "moonshot rows" `Quick test_moonshot_rows;
          Alcotest.test_case "hop constants" `Quick test_hops_constants;
        ] );
    ]
