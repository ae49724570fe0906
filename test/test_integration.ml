(* End-to-end simulation tests: whole networks of nodes running each
   protocol, checking the paper's headline properties — commit latencies of
   3 delta vs 5 delta, block periods of delta vs 2 delta, reorg resilience,
   safety under equivocation and recovery after GST.

   The uniform zero-jitter network makes hop counts exact: every message
   takes [hop] ms, so steady-state latencies are integer multiples of it. *)

open Bft_runtime
module Schedules = Bft_workload.Schedules

let check = Alcotest.(check bool)

let hop = 10.

(* A small deterministic network: n nodes, every message exactly [hop] ms,
   no bandwidth limit, delta = 50 ms. *)
let base_config protocol ~n =
  {
    (Config.default protocol ~n) with
    Config.latency = Config.Uniform { base = hop; jitter = 0. };
    bandwidth_bps = None;
    delta_ms = 50.;
    duration_ms = 2_000.;
    seed = 7;
  }

let run = Bft_runtime.Harness.run

let committed r = r.Harness.metrics.Metrics.committed_blocks
let avg_latency r = r.Harness.metrics.Metrics.avg_latency_ms

(* --- Happy path ------------------------------------------------------------- *)

let test_all_protocols_commit () =
  List.iter
    (fun p ->
      let r = run (base_config p ~n:4) in
      check (Protocol_kind.name p ^ " commits") true (committed r > 10))
    Protocol_kind.all

let test_moonshot_latency_is_3_hops () =
  List.iter
    (fun p ->
      let r = run (base_config p ~n:4) in
      let lat = avg_latency r in
      check
        (Protocol_kind.name p ^ " commit latency near 3 hops")
        true
        (lat > 2.5 *. hop && lat < 3.7 *. hop))
    [
      Protocol_kind.Simple_moonshot;
      Protocol_kind.Pipelined_moonshot;
      Protocol_kind.Commit_moonshot;
    ]

let test_jolteon_latency_is_5_hops () =
  let r = run (base_config Protocol_kind.Jolteon ~n:4) in
  let lat = avg_latency r in
  check "jolteon commit latency near 5 hops" true
    (lat > 4.5 *. hop && lat < 5.7 *. hop)

let test_block_period_delta_vs_2delta () =
  let pm = run (base_config Protocol_kind.Pipelined_moonshot ~n:4) in
  let j = run (base_config Protocol_kind.Jolteon ~n:4) in
  (* Moonshot proposes every hop, Jolteon every two hops. *)
  let ratio = float_of_int (committed pm) /. float_of_int (committed j) in
  check "moonshot commits ~2x jolteon's blocks" true (ratio > 1.7 && ratio < 2.3);
  check "moonshot period near delta" true
    (committed pm > int_of_float (2_000. /. hop *. 0.85))

let test_all_honest_nodes_commit_equally () =
  let r = run (base_config Protocol_kind.Pipelined_moonshot ~n:7) in
  let per_node = r.Harness.metrics.Metrics.per_node_committed in
  let top = Array.fold_left max 0 per_node in
  check "every node commits within a few blocks of the leader count" true
    (Array.for_all (fun c -> top - c < 10) per_node)

let test_bigger_network_still_works () =
  let r = run (base_config Protocol_kind.Commit_moonshot ~n:13) in
  check "13 nodes commit" true (committed r > 10)


let test_hotstuff_latency_is_7_hops () =
  let r = run (base_config Protocol_kind.Hotstuff ~n:4) in
  let lat = avg_latency r in
  check "hotstuff commit latency near 7 hops" true
    (lat > 6.5 *. hop && lat < 7.7 *. hop)


(* --- Communication complexity ------------------------------------------------ *)

let test_message_complexity () =
  let pm = run (base_config Protocol_kind.Pipelined_moonshot ~n:10) in
  let j = run (base_config Protocol_kind.Jolteon ~n:10) in
  let per_block_pm =
    float_of_int pm.Harness.messages_sent /. float_of_int (committed pm)
  in
  let per_block_j =
    float_of_int j.Harness.messages_sent /. float_of_int (committed j)
  in
  (* Quadratic vs linear steady state: at n = 10 moonshot sends an order of
     magnitude more messages per block. *)
  check "moonshot quadratic vs jolteon linear" true
    (per_block_pm /. per_block_j > 5.)

(* --- Failures ------------------------------------------------------------------ *)

let with_failures protocol ~n ~f' ~schedule =
  {
    (base_config protocol ~n) with
    Config.f_actual = f';
    schedule;
    duration_ms = 4_000.;
  }

let test_progress_with_silent_leader () =
  List.iter
    (fun p ->
      let r = run (with_failures p ~n:4 ~f':1 ~schedule:Schedules.Round_robin) in
      check (Protocol_kind.name p ^ " survives a silent leader") true
        (committed r > 5))
    Protocol_kind.paper;
  (* HotStuff's three-chain commit needs three consecutive certified views;
     with n = 4 and every fourth aggregator silent that window never forms —
     a real property of aggregator-based three-chain protocols.  With n = 7
     the six-view honest runs suffice. *)
  let hs4 = run (with_failures Protocol_kind.Hotstuff ~n:4 ~f':1
                   ~schedule:Schedules.Round_robin) in
  check "hotstuff stalls at n=4 with a rotating silent aggregator" true
    (committed hs4 = 0);
  let hs7 = run (with_failures Protocol_kind.Hotstuff ~n:7 ~f':1
                   ~schedule:Schedules.Round_robin) in
  check "hotstuff recovers with longer honest runs" true (committed hs7 > 5)

let test_simple_weakest_moonshot_under_failures () =
  (* Paper, Section VI-B: Simple Moonshot's 5-Delta view timer and 2-Delta
     post-failure wait cost it throughput relative to Pipelined. *)
  let sm =
    run (with_failures Protocol_kind.Simple_moonshot ~n:7 ~f':2
           ~schedule:Schedules.Worst_jolteon)
  in
  let pm =
    run (with_failures Protocol_kind.Pipelined_moonshot ~n:7 ~f':2
           ~schedule:Schedules.Worst_jolteon)
  in
  check "SM commits fewer than PM under failures" true
    (committed sm < committed pm);
  check "SM still reorg resilient (keeps committing)" true (committed sm > 5)

let test_reorg_resilience_under_wj () =
  (* Under the WJ schedule Jolteon loses the blocks whose votes flow to a
     Byzantine aggregator; Moonshot's vote multicast keeps them. *)
  let pm =
    run (with_failures Protocol_kind.Pipelined_moonshot ~n:4 ~f':1
           ~schedule:Schedules.Worst_jolteon)
  in
  let j =
    run (with_failures Protocol_kind.Jolteon ~n:4 ~f':1
           ~schedule:Schedules.Worst_jolteon)
  in
  check "moonshot commits more than jolteon under WJ" true
    (committed pm > committed j);
  check "moonshot still makes steady progress" true (committed pm > 10)

let test_commit_moonshot_fast_under_wm () =
  (* Under WM the pipelined protocols commit honest blocks only after long
     delays (no consecutive honest pair); Commit Moonshot's explicit
     pre-commit keeps latency near the happy path. *)
  let cm =
    run (with_failures Protocol_kind.Commit_moonshot ~n:7 ~f':2
           ~schedule:Schedules.Worst_moonshot)
  in
  let pm =
    run (with_failures Protocol_kind.Pipelined_moonshot ~n:7 ~f':2
           ~schedule:Schedules.Worst_moonshot)
  in
  check "commit moonshot commits under WM" true (committed cm > 5);
  check "commit moonshot latency well below pipelined's" true
    (avg_latency cm < avg_latency pm /. 2.)

let test_silent_f_max () =
  (* The maximum tolerated number of silent nodes: f' = f = (n-1)/3. *)
  let r =
    run (with_failures Protocol_kind.Commit_moonshot ~n:7 ~f':2
           ~schedule:Schedules.Best_case)
  in
  check "progress with f' = f silent nodes" true (committed r > 5)

(* --- Byzantine equivocation ------------------------------------------------------ *)

let test_equivocating_leader_is_safe () =
  List.iter
    (fun p ->
      let cfg =
        {
          (base_config p ~n:4) with
          Config.byzantine = [ (0, Byzantine.Equivocate) ];
          duration_ms = 4_000.;
        }
      in
      (* Metrics raise Safety_violation if any two nodes commit conflicting
         blocks; reaching here means safety held. *)
      let r = run cfg in
      check (Protocol_kind.name p ^ " liveness despite equivocator") true
        (committed r > 5))
    Protocol_kind.all

let test_equivocating_leader_uncertified () =
  (* With n = 4 the equivocator splits honest votes 2/2: neither conflicting
     block can gather a quorum, so no block proposed by node 0 in a view it
     equivocated should ever commit in conflict — stronger: runs are safe
     (checked) and other leaders' blocks dominate the chain. *)
  let cfg =
    {
      (base_config Protocol_kind.Pipelined_moonshot ~n:4) with
      Config.byzantine = [ (0, Byzantine.Equivocate) ];
      duration_ms = 4_000.;
    }
  in
  let r = run cfg in
  check "chain keeps growing around the equivocator" true (committed r > 5)


(* --- Richer Byzantine behaviours --------------------------------------------------- *)

let test_vote_withholders_tolerated () =
  (* f vote-withholding nodes: certificates still form from the remaining
     2f+1 voters; commits continue at full pace. *)
  let cfg =
    { (base_config Protocol_kind.Pipelined_moonshot ~n:7) with
      Config.byzantine = [ (0, Byzantine.Withhold_votes); (1, Byzantine.Withhold_votes) ] }
  in
  let r = run cfg in
  check "progress with f withholders" true (committed r > 10)

let test_withholders_above_f_rejected () =
  let cfg =
    { (base_config Protocol_kind.Pipelined_moonshot ~n:7) with
      Config.byzantine =
        [ (0, Byzantine.Withhold_votes); (1, Byzantine.Withhold_votes);
          (2, Byzantine.Withhold_votes) ] }
  in
  check "threat model enforced" true
    (try ignore (run cfg); false with Invalid_argument _ -> true)

let test_delaying_node_is_safe () =
  (* One node lags all its messages by 4 hops: views it leads may time out,
     everything stays safe, overall progress continues. *)
  let cfg =
    { (base_config Protocol_kind.Commit_moonshot ~n:4) with
      Config.byzantine = [ (1, Byzantine.Delay_all (4. *. hop)) ];
      duration_ms = 4_000. }
  in
  let r = run cfg in
  check "progress with a lagging node" true (committed r > 10)

let test_mixed_adversary () =
  (* Equivocator + withholder (= f for n = 7), every protocol: safety is the
     harness check, liveness the assertion. *)
  List.iter
    (fun p ->
      let cfg =
        { (base_config p ~n:7) with
          Config.byzantine =
            [ (0, Byzantine.Equivocate); (1, Byzantine.Withhold_votes) ];
          duration_ms = 4_000. }
      in
      let r = run cfg in
      check (Protocol_kind.name p ^ " survives a mixed adversary") true
        (committed r > 5))
    Protocol_kind.paper

(* --- Partial synchrony ------------------------------------------------------------ *)

let test_recovery_after_gst () =
  List.iter
    (fun p ->
      let cfg =
        {
          (base_config p ~n:4) with
          Config.gst_ms = 1_500.;
          pre_gst_extra_ms = 2_000.;
          duration_ms = 5_000.;
        }
      in
      let r = run cfg in
      (* The adversary scrambles delivery for 1.5 s; the protocol must both
         stay safe (checked by metrics) and commit plenty after GST. *)
      check (Protocol_kind.name p ^ " recovers after GST") true (committed r > 10))
    Protocol_kind.all

(* --- The beta vs rho separation (Section V) ----------------------------------------- *)

let test_commit_moonshot_wins_with_large_blocks () =
  (* Finite bandwidth + large payloads make proposals (beta) much slower
     than votes (rho).  Pipelined commit latency is 2 beta + rho; Commit
     Moonshot's is beta + 2 rho. *)
  let sized p =
    {
      (base_config p ~n:4) with
      Config.payload_bytes = 1_800_000;
      bandwidth_bps = Some 1e9;
      duration_ms = 10_000.;
      delta_ms = 200.;
    }
  in
  let pm = run (sized Protocol_kind.Pipelined_moonshot) in
  let cm = run (sized Protocol_kind.Commit_moonshot) in
  check "CM latency beats PM on large blocks" true
    (avg_latency cm < avg_latency pm *. 0.85)

let test_equal_sizes_equal_latency () =
  (* With empty payloads beta = rho and the pre-commit phase buys nothing:
     CM and PM latencies coincide. *)
  let pm = run (base_config Protocol_kind.Pipelined_moonshot ~n:4) in
  let cm = run (base_config Protocol_kind.Commit_moonshot ~n:4) in
  check "CM ~ PM with empty blocks" true
    (Float.abs (avg_latency cm -. avg_latency pm) < 0.5 *. hop)


(* --- Message duplication --------------------------------------------------------- *)

let test_duplication_is_harmless () =
  (* 30% of messages delivered twice: idempotent handlers must neither
     break safety (checked by the harness) nor change what commits. *)
  let base = base_config Protocol_kind.Commit_moonshot ~n:4 in
  let clean = run base in
  let noisy = run { base with Config.duplicate_prob = 0.3 } in
  check "same commits despite duplication" true
    (committed noisy = committed clean);
  check "duplication never certifies with fewer voters" true
    (avg_latency noisy >= avg_latency clean -. 0.001)

let test_duplication_all_protocols () =
  List.iter
    (fun p ->
      let r = run { (base_config p ~n:4) with Config.duplicate_prob = 0.5 } in
      check (Protocol_kind.name p ^ " progresses under duplication") true
        (committed r > 10))
    Protocol_kind.all

(* --- Determinism --------------------------------------------------------------------- *)

let test_runs_are_deterministic () =
  let cfg = base_config Protocol_kind.Commit_moonshot ~n:7 in
  let a = run cfg and b = run cfg in
  check "same committed count" true (committed a = committed b);
  check "same latency" true (avg_latency a = avg_latency b);
  check "same message count" true (a.Harness.messages_sent = b.Harness.messages_sent)

let test_seeds_change_runs () =
  let cfg =
    { (base_config Protocol_kind.Commit_moonshot ~n:7) with
      Config.latency = Config.Uniform { base = hop; jitter = 5. } }
  in
  let a = run cfg and b = run { cfg with Config.seed = 8 } in
  check "different seeds differ somewhere" true
    (a.Harness.bytes_sent <> b.Harness.bytes_sent || committed a <> committed b
    || avg_latency a <> avg_latency b)

(* --- Transfer rate accounting ---------------------------------------------------------- *)

let test_transfer_rate_consistent () =
  let cfg =
    { (base_config Protocol_kind.Commit_moonshot ~n:4) with
      Config.payload_bytes = 18_000 }
  in
  let r = run cfg in
  let m = r.Harness.metrics in
  let expected =
    float_of_int m.Metrics.committed_blocks *. 18_000. /. 2.0 (* seconds *)
  in
  check "transfer rate = blocks x payload / time" true
    (Float.abs (m.Metrics.transfer_rate_bps -. expected) < 1.)

let test_wan_run_commits () =
  (* The paper's WAN model end to end (table latencies + bandwidth). *)
  let cfg =
    { (Config.default Protocol_kind.Commit_moonshot ~n:10) with
      Config.duration_ms = 5_000.; payload_bytes = 1_800 }
  in
  let r = run cfg in
  check "WAN commits" true (committed r > 5);
  check "WAN latency plausibly 3 hops of ~140ms" true
    (avg_latency r > 200. && avg_latency r < 800.)

let () =
  Alcotest.run "integration"
    [
      ( "happy-path",
        [
          Alcotest.test_case "all protocols commit" `Quick test_all_protocols_commit;
          Alcotest.test_case "moonshot 3-hop latency" `Quick
            test_moonshot_latency_is_3_hops;
          Alcotest.test_case "jolteon 5-hop latency" `Quick test_jolteon_latency_is_5_hops;
          Alcotest.test_case "hotstuff 7-hop latency" `Quick test_hotstuff_latency_is_7_hops;
          Alcotest.test_case "block period" `Quick test_block_period_delta_vs_2delta;
          Alcotest.test_case "nodes commit equally" `Quick
            test_all_honest_nodes_commit_equally;
          Alcotest.test_case "n=13" `Quick test_bigger_network_still_works;
          Alcotest.test_case "message complexity" `Quick test_message_complexity;
        ] );
      ( "failures",
        [
          Alcotest.test_case "silent leader" `Quick test_progress_with_silent_leader;
          Alcotest.test_case "reorg resilience (WJ)" `Quick test_reorg_resilience_under_wj;
          Alcotest.test_case "commit moonshot under WM" `Quick
            test_commit_moonshot_fast_under_wm;
          Alcotest.test_case "f' = f silent" `Quick test_silent_f_max;
          Alcotest.test_case "SM weakest under failures" `Quick
            test_simple_weakest_moonshot_under_failures;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "equivocation safe" `Quick test_equivocating_leader_is_safe;
          Alcotest.test_case "equivocator contained" `Quick
            test_equivocating_leader_uncertified;
        ] );
      ( "byzantine-behaviours",
        [
          Alcotest.test_case "vote withholders" `Quick test_vote_withholders_tolerated;
          Alcotest.test_case "threat model cap" `Quick test_withholders_above_f_rejected;
          Alcotest.test_case "lagging node" `Quick test_delaying_node_is_safe;
          Alcotest.test_case "mixed adversary" `Quick test_mixed_adversary;
        ] );
      ( "partial-synchrony",
        [ Alcotest.test_case "recovery after GST" `Quick test_recovery_after_gst ] );
      ( "beta-vs-rho",
        [
          Alcotest.test_case "CM wins on large blocks" `Quick
            test_commit_moonshot_wins_with_large_blocks;
          Alcotest.test_case "tie on empty blocks" `Quick test_equal_sizes_equal_latency;
        ] );
      ( "duplication",
        [
          Alcotest.test_case "harmless" `Quick test_duplication_is_harmless;
          Alcotest.test_case "all protocols" `Quick test_duplication_all_protocols;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reproducible" `Quick test_runs_are_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_seeds_change_runs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "transfer rate" `Quick test_transfer_rate_consistent;
          Alcotest.test_case "WAN end-to-end" `Quick test_wan_run_commits;
        ] );
    ]
