(* The bounded model checker end to end: exhaustive small worlds are safe
   and live for all five protocols, an injected double-vote bug is caught
   with a deterministically replayable counterexample, exploration is
   bit-identical across worker counts, the PR-3 post-partition deadlock
   stays fixed, and the schedule compiler rejects what it must reject.

   The sampling modes are covered by the same standard: swarm walks are
   byte-identical across job counts and find the injected double vote; the
   coverage-guided schedule search rediscovers the PR-3 post-partition
   wedge on a protocol with the fix reverted — from a pinned seed and
   budget, with a byte-stable JSONL replay — and finds nothing on the
   fixed protocol under the identical budget.  The symmetry canonicalizer
   is checked against its model-based spec by qcheck. *)

open Bft_mc
module Kind = Bft_runtime.Protocol_kind
module FS = Bft_faults.Fault_schedule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A 4-node world explored to view 2 with one timeout per node per era:
   small enough for the suite, deep enough to cover proposal, vote,
   certificate, gossip and timeout interleavings. *)
let small_cfg ?faults ?equivocators ?(view_bound = 2) () =
  Checker.config ~n:4 ~view_bound ~timer_budget:1 ?faults ?equivocators ()

(* --- safety of the real protocols ------------------------------------------- *)

let test_all_protocols_safe () =
  List.iter
    (fun kind ->
      let name = Kind.name kind in
      (* HotStuff's 3-chain commit rule needs a third view; Jolteon and
         HotStuff explore tiny spaces (unicast vote collection), so the
         deeper bound costs nothing. *)
      let view_bound =
        match kind with Kind.Jolteon | Kind.Hotstuff -> 3 | _ -> 2
      in
      let r = Checker.check kind (small_cfg ~view_bound ()) in
      check_int (name ^ ": zero violations") 0 (List.length r.Mc_report.violations);
      check (name ^ ": state space exhausted") true
        r.Mc_report.stats.Mc_report.exhausted;
      check (name ^ ": some branch commits") true (r.Mc_report.max_committed > 0);
      check (name ^ ": commit witness recorded") true
        (r.Mc_report.commit_witness <> None);
      check_int (name ^ ": no deadlocked branch") 0 r.Mc_report.deadlocks;
      check (name ^ ": exploration is nontrivial") true
        (r.Mc_report.stats.Mc_report.states_visited > 20))
    Kind.all

let test_equivocator_does_not_trip_double_vote () =
  (* A registered equivocating proposer sends conflicting blocks by design;
     the double-vote invariant must exempt it (safety must still hold for
     the honest nodes). *)
  let r =
    Checker.check Kind.Simple_moonshot (small_cfg ~equivocators:[ 0 ] ())
  in
  check_int "equivocator worlds stay violation-free" 0
    (List.length r.Mc_report.violations);
  check "and are fully explored" true r.Mc_report.stats.Mc_report.exhausted

(* --- the deliberately broken protocol ---------------------------------------- *)

module Broken_mc = Checker.Make (Test_support.Broken.Double_vote)

let test_double_vote_detected () =
  let cfg = small_cfg () in
  let r = Broken_mc.check cfg in
  check "the injected bug is found" true (r.Mc_report.violations <> []);
  let v = List.hd r.Mc_report.violations in
  check "and classified as a double vote" true
    (v.Mc_report.kind = Mc_report.Double_vote);
  check "with a short counterexample" true (List.length v.Mc_report.path <= 8)

let test_counterexample_replay_is_byte_stable () =
  let cfg = small_cfg () in
  let r1 = Broken_mc.check cfg in
  let r2 = Broken_mc.check ~jobs:3 cfg in
  let path r =
    match r.Mc_report.violations with
    | v :: _ -> v.Mc_report.path
    | [] -> Alcotest.fail "expected a counterexample"
  in
  check "same counterexample for any worker count" true (path r1 = path r2);
  let jsonl () = Bft_obs.Trace.to_jsonl (Broken_mc.replay cfg (path r1)) in
  let a = jsonl () and b = jsonl () in
  check "replay traces are non-empty" true (String.length a > 0);
  check "and byte-identical across runs" true (String.equal a b)

(* --- determinism across worker counts ---------------------------------------- *)

let test_jobs_determinism () =
  let cfg = small_cfg () in
  let r1 = Checker.check ~jobs:1 Kind.Simple_moonshot cfg in
  let r4 = Checker.check ~jobs:4 Kind.Simple_moonshot cfg in
  (* The whole report — counts, witness paths, violation lists — is plain
     data, so structural equality is the strongest possible statement. *)
  check "reports are structurally identical for jobs 1 vs 4" true (r1 = r4)

(* --- the PR-3 regression: post-partition recovery ----------------------------- *)

let test_partition_regression () =
  (* Split 2/2 (neither side has a quorum), then heal: the checker must
     find no stuck branch — every explored world either commits or is
     truncated by the view bound while still able to act.  This is the
     world in which Simple Moonshot deadlocked before the stuck-view
     rebroadcast fix. *)
  let sched =
    [ FS.Partition { groups = [ [ 0; 1 ]; [ 2; 3 ] ]; from_ = 0.; until = 1000. } ]
  in
  match Mc_schedule.compile ~n:4 sched with
  | Error e -> Alcotest.fail e
  | Ok steps ->
      check_int "partition compiles to its two edges" 2 (List.length steps);
      let cfg = small_cfg ~faults:steps () in
      let r = Checker.check Kind.Simple_moonshot cfg in
      check_int "no safety violations through split and heal" 0
        (List.length r.Mc_report.violations);
      check "state space exhausted" true r.Mc_report.stats.Mc_report.exhausted;
      check_int "no branch deadlocks post-heal" 0 r.Mc_report.deadlocks;
      check "some branch commits despite the partition" true
        (r.Mc_report.max_committed >= 1 && r.Mc_report.commit_witness <> None)

(* --- exploration statistics ---------------------------------------------------- *)

let test_stats_accounting () =
  (* Tiny world, pinned by hand: n=4, view 1 only, no timer budget — the
     only choices are delivery orderings of leader 0's view-1 traffic.
     The root offers the three proposal deliveries; sleep sets prune the
     commuting orders (deliveries to distinct destinations), digest
     matching never fires (every surviving interleaving differs in arrival
     order, which the digest includes).  The pinned numbers are a
     regression anchor for the counter semantics: a change that starts
     counting sleep-pruned branches as digest-matched (or vice versa)
     moves them. *)
  let r =
    Checker.check Kind.Simple_moonshot
      (Checker.config ~n:4 ~view_bound:1 ~timer_budget:0 ())
  in
  let s = r.Mc_report.stats in
  check_int "tiny world: distinct states" 113 s.Mc_report.states_visited;
  check_int "tiny world: nothing digest-matched" 0 s.Mc_report.states_matched;
  check_int "tiny world: nothing re-expanded" 0 s.Mc_report.states_reexpanded;
  check_int "tiny world: sleep-pruned branches counted separately" 158
    s.Mc_report.sleep_skips;
  check_int "tiny world: branches = transitions - 1" 112 s.Mc_report.branches;
  check_int "tiny world: leaves" 42 s.Mc_report.leaves;
  (* A world where every counter is live: a crashing follower makes
     distinct interleavings converge (digest matches), and convergence
     under differing sleep sets forces re-expansions.  The identities are
     the checker's own bookkeeping invariants. *)
  let r =
    Checker.check Kind.Jolteon
      (Checker.config ~n:5 ~view_bound:2 ~timer_budget:1 ~reorder_window:2
         ~faults:[ Mc_schedule.Crash 1 ] ~symmetry:true ())
  in
  let s = r.Mc_report.stats in
  check "crash world: digest matches occur" true (s.Mc_report.states_matched > 0);
  check "crash world: re-expansions occur" true
    (s.Mc_report.states_reexpanded > 0);
  check "crash world: sleep pruning occurs" true (s.Mc_report.sleep_skips > 0);
  check_int "crash world: transitions = visited + matched + reexpanded"
    s.Mc_report.transitions
    (s.Mc_report.states_visited + s.Mc_report.states_matched
   + s.Mc_report.states_reexpanded);
  check_int "crash world: transitions = branches + 1" s.Mc_report.transitions
    (s.Mc_report.branches + 1);
  let dpr = Mc_report.digest_prune_ratio s in
  let spr = Mc_report.sleep_prune_ratio s in
  check "crash world: ratios are proper fractions" true
    (dpr > 0. && dpr < 1. && spr > 0. && spr < 1.)

(* --- validator symmetry -------------------------------------------------------- *)

(* Model-based spec of the canonicalizer over random structured vectors:
   canonicalization is invariant under any movable permutation, and two
   vectors share a canonical digest exactly when one is a movable
   permutation of the other (no inequivalent states collapse). *)

let vec_gen =
  let open QCheck.Gen in
  let small_hash = map Int64.of_int (int_range 0 5) in
  int_range 4 6 >>= fun n ->
  int_range 1 2 >>= fun view_bound ->
  array_size (return n) (pair small_hash small_hash) >>= fun sv_nodes ->
  array_size (return (n * n)) small_hash >>= fun sv_chans ->
  array_size (return n) (list_size (int_range 0 2) (int_range 0 (n - 1)))
  >>= fun sv_arrivals ->
  array_size (return n) (int_range 0 2) >>= fun sv_timers ->
  array_size (return n) (int_range 0 1) >>= fun sv_fired ->
  int_range 0 2 >>= fun sv_fault_idx ->
  return
    ( view_bound,
      { Symmetry.sv_n = n; sv_nodes; sv_chans; sv_arrivals; sv_timers;
        sv_fired; sv_fault_idx } )

let vec_arb =
  QCheck.make vec_gen ~print:(fun (vb, v) ->
      Printf.sprintf "n=%d view_bound=%d digest=%Ld" v.Symmetry.sv_n vb
        (Symmetry.digest v))

let group_of (vb, v) =
  Symmetry.group ~n:v.Symmetry.sv_n
    (Symmetry.movable ~n:v.Symmetry.sv_n ~view_bound:vb ~fixed:[])

let test_symmetry_invariance =
  QCheck.Test.make ~count:200 ~name:"canonical o permute = canonical" vec_arb
    (fun (vb, v) ->
      let grp = group_of (vb, v) in
      let c = Symmetry.canonical grp v in
      List.for_all
        (fun p -> Int64.equal c (Symmetry.canonical grp (Symmetry.apply p v)))
        grp)

let test_symmetry_distinctness =
  (* Equal canonicals iff the vectors are in the same orbit: the canonical
     digest refines raw-digest equality and collapses nothing beyond the
     group.  Small hash alphabets make accidental orbit collisions (and
     hence a buggy over-merge) likely to surface. *)
  QCheck.Test.make ~count:200 ~name:"canonical merges orbits and nothing else"
    (QCheck.pair vec_arb vec_arb) (fun ((vb1, v1), (vb2, v2)) ->
      QCheck.assume (v1.Symmetry.sv_n = v2.Symmetry.sv_n && vb1 = vb2);
      let grp = group_of (vb1, v1) in
      let same_orbit =
        List.exists
          (fun p ->
            Int64.equal (Symmetry.digest (Symmetry.apply p v1))
              (Symmetry.digest v2))
          grp
      in
      Bool.equal
        (Int64.equal (Symmetry.canonical grp v1) (Symmetry.canonical grp v2))
        same_orbit)

let test_symmetry_identity_group () =
  (* No movable nodes (or a singleton) — canonicalization degenerates to
     the plain digest, and the checker's baseline digests are unchanged. *)
  let v =
    {
      Symmetry.sv_n = 4;
      sv_nodes = [| (1L, 2L); (3L, 4L); (5L, 6L); (7L, 8L) |];
      sv_chans = Array.init 16 Int64.of_int;
      sv_arrivals = [| [ 1 ]; [ 0; 2 ]; []; [ 3 ] |];
      sv_timers = [| 1; 0; 2; 0 |];
      sv_fired = [| 0; 1; 0; 0 |];
      sv_fault_idx = 1;
    }
  in
  check "canonical under the empty group is the digest" true
    (Int64.equal (Symmetry.canonical [] v) (Symmetry.digest v));
  let movable = Symmetry.movable ~n:4 ~view_bound:3 ~fixed:[] in
  check_int "n=4, view_bound=3 leaves one movable node" 1 (List.length movable);
  let grp = Symmetry.group ~n:4 movable in
  check_int "whose group is just the identity" 1 (List.length grp);
  check "and canonicalization is the identity there" true
    (Int64.equal (Symmetry.canonical grp v) (Symmetry.digest v))

let test_symmetry_agrees_with_baseline () =
  (* The reduction must preserve every verdict on a world it can shrink:
     same violations (none), same commit reachability, same exhaustion —
     with no more states than the baseline. *)
  let world symmetry =
    Checker.config ~n:5 ~view_bound:1 ~timer_budget:1 ~symmetry ()
  in
  let base = Checker.check Kind.Simple_moonshot (world false) in
  let sym = Checker.check Kind.Simple_moonshot (world true) in
  let verdict (r : Mc_report.t) =
    ( r.Mc_report.violations,
      r.Mc_report.max_committed,
      r.Mc_report.deadlocks,
      r.Mc_report.livelocks,
      r.Mc_report.stats.Mc_report.exhausted )
  in
  check "same verdict with and without symmetry" true
    (verdict base = verdict sym);
  check "symmetry never increases the state count" true
    (sym.Mc_report.stats.Mc_report.states_visited
    <= base.Mc_report.stats.Mc_report.states_visited)

(* --- swarm mode ---------------------------------------------------------------- *)

let test_swarm_jobs_determinism () =
  let cfg = small_cfg () in
  let s1 = Checker.swarm ~jobs:1 Kind.Simple_moonshot ~walks:64 ~depth:48 ~seed:7 cfg in
  let s4 = Checker.swarm ~jobs:4 Kind.Simple_moonshot ~walks:64 ~depth:48 ~seed:7 cfg in
  check "swarm reports are structurally identical for jobs 1 vs 4" true
    (s1 = s4);
  let s8 = Checker.swarm Kind.Simple_moonshot ~walks:64 ~depth:48 ~seed:8 cfg in
  check "a different seed explores a different walk set" true
    (not (Int64.equal s1.Mc_report.sw_fingerprint s8.Mc_report.sw_fingerprint));
  check "healthy world: no violations sampled" true
    (s1.Mc_report.sw_violations = [] && s1.Mc_report.sw_livelock_witness = None);
  check "walks cover distinct states" true (s1.Mc_report.sw_distinct > 64)

let test_swarm_catches_double_vote () =
  (* The sampling mode must find what the exhaustive mode finds: the
     injected double vote falls inside a few dozen sampled interleavings
     (pinned seed and budget), and the walk's path replays through the
     same machinery as an exhaustive counterexample. *)
  let cfg = small_cfg () in
  let sw = Broken_mc.swarm ~walks:32 ~depth:48 ~seed:1 cfg in
  check "swarm finds the injected double vote" true
    (sw.Mc_report.sw_violations <> []);
  let v = List.hd sw.Mc_report.sw_violations in
  check "classified as a double vote" true
    (v.Mc_report.kind = Mc_report.Double_vote);
  let jsonl () = Bft_obs.Trace.to_jsonl (Broken_mc.replay cfg v.Mc_report.path) in
  let a = jsonl () and b = jsonl () in
  check "sampled counterexample replays byte-stably" true
    (String.length a > 0 && String.equal a b)

(* --- the PR-3 wedge, rediscovered by the machine ------------------------------- *)

(* Simple Moonshot with the PR-3 liveness fix reverted
   ({!Test_support.Broken.No_regossip}): timeouts carry no lock and
   cert/TC gossip deduplicates, so a 2/2 split-and-heal can wedge the two
   sides forever.  The checker's livelock certificate must catch it; the
   fixed protocol must stay clean under the identical seed and budget. *)
module Ng_mc = Checker.Make (Test_support.Broken.No_regossip)
module Simple_mc = Checker.Make (Moonshot.Simple_node.Protocol)

let wedge_world faults =
  Checker.config ~n:4 ~view_bound:3 ~timer_budget:1 ~max_depth:200 ~faults ()

let halves_partition = "partition@100-500:0,1/2,3"

let compiled_halves () =
  match FS.of_string halves_partition with
  | Error e -> Alcotest.fail e
  | Ok sched -> (
      match Mc_schedule.compile ~n:4 sched with
      | Error e -> Alcotest.fail e
      | Ok steps -> steps)

let test_swarm_certifies_livelock () =
  let cfg = wedge_world (compiled_halves ()) in
  let sw = Ng_mc.swarm ~walks:64 ~depth:150 ~seed:1 cfg in
  let livelocks =
    List.assoc Mc_report.Ep_livelock sw.Mc_report.sw_endpoints
  in
  check "the reverted protocol livelocks under split-and-heal" true
    (livelocks > 0);
  check "with a witness path" true (sw.Mc_report.sw_livelock_witness <> None);
  check "and no safety violation" true (sw.Mc_report.sw_violations = []);
  let fixed = Simple_mc.swarm ~walks:64 ~depth:150 ~seed:1 cfg in
  check_int "the fixed protocol certifies zero livelocks, same seed+budget" 0
    (List.assoc Mc_report.Ep_livelock fixed.Mc_report.sw_endpoints);
  check "and stays violation-free" true (fixed.Mc_report.sw_violations = [])

let test_search_rediscovers_wedge () =
  (* From a pinned seed and budget, the schedule search must invent a
     schedule that wedges the reverted protocol — it lands on the halves
     partition (an of_string round-trippable schedule) and certifies a
     livelock under it.  The same budget on the fixed protocol finds
     nothing. *)
  let cfg =
    Checker.config ~n:4 ~view_bound:3 ~timer_budget:1 ~max_depth:200 ()
  in
  let xcfg =
    Checker.search_config ~seed:1 ~rounds:4 ~population:8 ~mutants:10
      ~walks:24 ~depth:150 ~fault_budget:1 ()
  in
  let se = Ng_mc.schedule_search xcfg cfg in
  (match se.Mc_report.se_counterexample with
  | None -> Alcotest.fail "search failed to rediscover the PR-3 wedge"
  | Some (sched_text, cx) -> (
      (* The found schedule round-trips through the fault DSL... *)
      let steps =
        match FS.of_string sched_text with
        | Error e -> Alcotest.failf "found schedule does not parse: %s" e
        | Ok sched -> (
            match Mc_schedule.compile ~n:4 sched with
            | Error e -> Alcotest.failf "found schedule does not compile: %s" e
            | Ok steps -> steps)
      in
      match cx with
      | Mc_report.Cx_violation v ->
          Alcotest.failf "expected a livelock, found a violation: %s"
            v.Mc_report.detail
      | Mc_report.Cx_livelock path ->
          (* ...and the certified wedge replays byte-stably under it. *)
          let cfg' = wedge_world steps in
          let jsonl () = Bft_obs.Trace.to_jsonl (Ng_mc.replay cfg' path) in
          let a = jsonl () and b = jsonl () in
          check "wedge replay is non-empty and byte-stable" true
            (String.length a > 0 && String.equal a b)));
  let clean = Simple_mc.schedule_search xcfg cfg in
  check "the fixed protocol survives the identical search budget" true
    (clean.Mc_report.se_counterexample = None);
  check "which ran its full round budget" true
    (clean.Mc_report.se_rounds = 4 && clean.Mc_report.se_evals > 40)

(* --- the schedule compiler ---------------------------------------------------- *)

let test_schedule_compile () =
  let ok sched =
    match Mc_schedule.compile ~n:4 sched with
    | Ok steps -> steps
    | Error e -> Alcotest.failf "unexpected compile error: %s" e
  in
  let rejected sched =
    match Mc_schedule.compile ~n:4 sched with Ok _ -> false | Error _ -> true
  in
  (* Edges come out in start-time order, opening before closing. *)
  (match
     ok
       [
         FS.Crash { node = 1; at = 50. };
         FS.Partition { groups = [ [ 0; 2 ]; [ 3 ] ]; from_ = 10.; until = 90. };
         FS.Recover { node = 1; at = 70. };
       ]
   with
  | [
   Mc_schedule.Partition_on _;
   Mc_schedule.Crash 1;
   Mc_schedule.Recover 1;
   Mc_schedule.Partition_off;
  ] ->
      ()
  | steps ->
      Alcotest.failf "unexpected linearization of %d steps" (List.length steps));
  check "link loss has no untimed meaning" true
    (rejected [ FS.Link_loss { prob = 0.3; from_ = 0.; until = 10. } ]);
  check "delay spikes have no untimed meaning" true
    (rejected [ FS.Delay_spike { extra_ms = 50.; from_ = 0.; until = 10. } ]);
  check "out-of-range node rejected" true
    (rejected [ FS.Crash { node = 7; at = 1. } ]);
  check "overlapping partitions rejected" true
    (rejected
       [
         FS.Partition { groups = [ [ 0 ]; [ 1 ] ]; from_ = 0.; until = 20. };
         FS.Partition { groups = [ [ 2 ]; [ 3 ] ]; from_ = 10.; until = 30. };
       ])

let () =
  Alcotest.run "mc"
    [
      ( "safety",
        [
          Alcotest.test_case "all five protocols safe and live" `Quick
            test_all_protocols_safe;
          Alcotest.test_case "equivocators exempt from double-vote" `Quick
            test_equivocator_does_not_trip_double_vote;
        ] );
      ( "detection",
        [
          Alcotest.test_case "injected double vote caught" `Quick
            test_double_vote_detected;
          Alcotest.test_case "counterexample replay byte-stable" `Quick
            test_counterexample_replay_is_byte_stable;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_determinism ] );
      ( "stats",
        [
          Alcotest.test_case "counter semantics and identities" `Quick
            test_stats_accounting;
        ] );
      ( "symmetry",
        [
          QCheck_alcotest.to_alcotest test_symmetry_invariance;
          QCheck_alcotest.to_alcotest test_symmetry_distinctness;
          Alcotest.test_case "degenerate groups are identities" `Quick
            test_symmetry_identity_group;
          Alcotest.test_case "reduction preserves the verdict" `Quick
            test_symmetry_agrees_with_baseline;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "jobs 1 = jobs 4, seeds differ" `Quick
            test_swarm_jobs_determinism;
          Alcotest.test_case "injected double vote sampled" `Quick
            test_swarm_catches_double_vote;
          Alcotest.test_case "split-and-heal wedge certified (PR 3 revert)"
            `Quick test_swarm_certifies_livelock;
        ] );
      ( "search",
        [
          Alcotest.test_case "rediscovers the PR-3 wedge, fixed stays clean"
            `Quick test_search_rediscovers_wedge;
        ] );
      ( "regression",
        [
          Alcotest.test_case "post-partition recovery (PR 3)" `Quick
            test_partition_regression;
        ] );
      ( "schedule",
        [ Alcotest.test_case "compile" `Quick test_schedule_compile ] );
    ]
