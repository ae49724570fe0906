(* Model-checker throughput benchmark.

   Explores the standard exhaustive worlds (n = 4, the deepest bounds that
   stay under a minute per protocol single-core) and reports states/second
   and the reduction stack's pruning ratios, runs the n = 5 symmetry
   acceptance comparison (canonicalized run exhausts; baseline gets the
   same wall-clock budget and is cut off), samples a swarm block per
   protocol, then writes BENCH_mc.json (schema bench_mc/v3) so successive
   PRs can diff checker performance.  [smoke] is the sub-second `dune runtest` tripwire: tiny
   worlds through the full checker stack, failing loudly on any violation,
   deadlock or non-exhaustion.  [swarm_smoke] is its sampling-mode twin:
   jobs-determinism, seed-separation and symmetry-agreement checks on tiny
   worlds. *)

open Bft_mc
module Kind = Bft_runtime.Protocol_kind
module Json = Bft_stats.Json

type row = {
  name : string;
  wall_s : float;
  report : Mc_report.t;
}

let states_per_sec r =
  if r.wall_s > 0. then
    float_of_int r.report.Mc_report.stats.Mc_report.states_visited /. r.wall_s
  else 0.

(* The acceptance worlds: view bound 3 exhausts for every protocol in
   under a minute single-core.  The default scale trims the three Moonshot
   variants to view 2 (seconds, same reduction machinery); Jolteon and
   HotStuff explore tiny spaces, and HotStuff's 3-chain rule needs the
   third view to commit at all, so they keep the deep bound everywhere. *)
let world ~full kind =
  let view_bound =
    match kind with
    | Kind.Jolteon | Kind.Hotstuff -> 3
    | _ -> if full then 3 else 2
  in
  let timer_budget = if full then 3 else 1 in
  Checker.config ~n:4 ~view_bound ~timer_budget ()

let run_one ?stop ~jobs kind cfg =
  let t0 = Unix.gettimeofday () in
  let report = Checker.check ?stop ~jobs kind cfg in
  { name = Kind.name kind; wall_s = Unix.gettimeofday () -. t0; report }

(* One exhaustive world: the file's row, and the printed table's. *)
let world_fields r =
  let open Mc_report in
  let s = r.report.stats in
  Json.
    [
      ("name", String r.name);
      ("states", Int s.states_visited);
      ("matched", Int s.states_matched);
      ("reexpanded", Int s.states_reexpanded);
      ("transitions", Int s.transitions);
      ("branches", Int s.branches);
      ("sleep_skips", Int s.sleep_skips);
      ("digest_prune_ratio", Float (4, digest_prune_ratio s));
      ("sleep_prune_ratio", Float (4, sleep_prune_ratio s));
      ("max_depth", Int s.max_depth_seen);
      ("exhausted", Bool s.exhausted);
      ("max_committed", Int r.report.max_committed);
      ("violations", Int (List.length r.report.violations));
      ("deadlocks", Int r.report.deadlocks);
      ("livelocks", Int r.report.livelocks);
      ("wall_clock_s", Float (3, r.wall_s));
      ("states_per_sec", Float (0, states_per_sec r));
    ]

let print_table rows =
  Format.printf "@.";
  Bench_file.print_columns
    [ "name"; "states"; "states_per_sec"; "digest_prune_ratio";
      "sleep_prune_ratio"; "max_depth"; "max_committed"; "wall_clock_s" ]
    (List.map world_fields rows)

let guard r =
  if r.report.Mc_report.violations <> [] then
    failwith
      (Format.asprintf "mc bench: %s has violations:@.%a" r.name Mc_report.pp
         r.report);
  if not r.report.Mc_report.stats.Mc_report.exhausted then
    failwith (Printf.sprintf "mc bench: %s did not exhaust its bound" r.name);
  if r.report.Mc_report.deadlocks <> 0 then
    failwith (Printf.sprintf "mc bench: %s has deadlocked branches" r.name)

(* {2 Symmetry acceptance comparison}

   The n = 5 world at view bound 3 has two movable followers (nodes 3 and
   4: round-robin pins the leaders of views 1-3, node 3's only lead is a
   leaf transition, and the crashed node 1 is schedule-fixed below the
   bound anyway).  The crash of view 2's leader plus timer budget 2 makes
   the space timeout-rich and follower-asymmetric — the regime where
   canonicalizing 3<->4 mirrors pays (measured ~25-30 % of states and
   wall-clock).  The baseline run gets exactly the symmetry run's
   wall-clock as a deadline and is expected to be cut off mid-search. *)

let sym_world =
  Checker.config ~n:5 ~view_bound:3 ~timer_budget:2 ~reorder_window:2
    ~faults:[ Mc_schedule.Crash 1 ] ~symmetry:true ()

let deadline secs =
  let t0 = Unix.gettimeofday () in
  fun () -> Unix.gettimeofday () -. t0 > secs

let run_symmetry ~jobs =
  Format.printf "@.symmetry: n=5 jolteon, view bound 3, crash of view-2 leader@.";
  let sym = run_one ~jobs Kind.Jolteon sym_world in
  guard { sym with name = "n5-symmetry" };
  let base_cfg = { sym_world with Checker.symmetry = false } in
  let base =
    run_one ~stop:(deadline sym.wall_s) ~jobs Kind.Jolteon base_cfg
  in
  let fields r =
    let s = r.report.Mc_report.stats in
    Json.
      [
        ("states", Int s.Mc_report.states_visited);
        ("transitions", Int s.Mc_report.transitions);
        ("exhausted", Bool s.Mc_report.exhausted);
        ("wall_clock_s", Float (3, r.wall_s));
        ("states_per_sec", Float (0, states_per_sec r));
      ]
  in
  let runs = [ ("symmetry", fields sym); ("baseline_same_budget", fields base) ] in
  Bench_file.print_columns
    [ "run"; "states"; "transitions"; "exhausted"; "wall_clock_s" ]
    (List.map (fun (run, f) -> ("run", Json.String run) :: f) runs);
  if base.report.Mc_report.stats.Mc_report.exhausted then
    Format.printf
      "  note: baseline finished inside the symmetry budget on this host@.";
  Json.Obj
    (("world", String "jolteon n=5 view<=3 timer-budget=2 reorder=2 crash@1")
    :: List.map (fun (run, f) -> (run, Json.Obj f)) runs)

(* {2 Swarm sampling block} *)

type swarm_row = {
  s_name : string;
  s_wall : float;
  s_sw : Mc_report.swarm;
}

let swarm_world = Checker.config ~n:4 ~view_bound:2 ~timer_budget:1 ()

let run_swarm ~jobs ~walks ~depth kind =
  let t0 = Unix.gettimeofday () in
  let sw = Checker.swarm ~jobs kind ~walks ~depth ~seed:1 swarm_world in
  { s_name = Kind.name kind; s_wall = Unix.gettimeofday () -. t0; s_sw = sw }

let swarm_fields r =
  let open Mc_report in
  let sw = r.s_sw in
  let walks_per_sec =
    if r.s_wall > 0. then float_of_int sw.sw_walks /. r.s_wall else 0.
  in
  Json.
    [
      ("name", String r.s_name);
      ("walks", Int sw.sw_walks);
      ("steps", Int sw.sw_steps);
      ("distinct", Int sw.sw_distinct);
      ("coverage", Float (2, coverage sw));
      ("walks_per_sec", Float (0, walks_per_sec));
      ("max_committed", Int sw.sw_max_committed);
      ("commitless", Int sw.sw_commitless);
      ("fingerprint", String (Printf.sprintf "%Lx" sw.sw_fingerprint));
      ("wall_clock_s", Float (3, r.s_wall));
    ]

let swarm_guard r =
  if r.s_sw.Mc_report.sw_violations <> [] then
    failwith
      (Format.asprintf "mc bench: swarm %s found violations:@.%a" r.s_name
         Mc_report.pp_swarm r.s_sw);
  if r.s_sw.Mc_report.sw_livelock_witness <> None then
    failwith (Printf.sprintf "mc bench: swarm %s found a livelock" r.s_name)

let run ~jobs ~full () =
  Format.printf "model checker: n=4 exhaustive worlds%s@."
    (if full then " (full scale, view bound 3)" else "");
  let rows =
    List.map (fun kind -> run_one ~jobs kind (world ~full kind)) Kind.all
  in
  List.iter guard rows;
  print_table rows;
  let symmetry = run_symmetry ~jobs in
  let swarm_rows = List.map (run_swarm ~jobs ~walks:256 ~depth:48) Kind.all in
  List.iter swarm_guard swarm_rows;
  let swarm = List.map swarm_fields swarm_rows in
  Format.printf "@.";
  Bench_file.print_columns
    [ "name"; "walks"; "walks_per_sec"; "steps"; "distinct"; "coverage";
      "wall_clock_s" ]
    swarm;
  Bench_file.write "BENCH_mc.json" ~schema:"bench_mc/v3"
    [
      ("jobs", Int jobs);
      ("worlds", Bench_file.array (List.map world_fields rows));
      ("symmetry_n5", symmetry);
      ("swarm", Bench_file.array swarm);
    ];
  Format.printf "@.wrote BENCH_mc.json: %d worlds, symmetry block, %d swarm rows@."
    (List.length rows) (List.length swarm_rows)

(* Sub-second: one Moonshot world at view 1 (reduction machinery, no
   commits reachable) and the two chained protocols at view 3 (commits,
   timers, the full invariant set). *)
let smoke () =
  let rows =
    [
      run_one ~jobs:1 Kind.Simple_moonshot
        (Checker.config ~n:4 ~view_bound:1 ~timer_budget:1 ());
      run_one ~jobs:1 Kind.Jolteon
        (Checker.config ~n:4 ~view_bound:3 ~timer_budget:1 ());
      run_one ~jobs:1 Kind.Hotstuff
        (Checker.config ~n:4 ~view_bound:3 ~timer_budget:1 ());
    ]
  in
  List.iter guard rows;
  List.iter
    (fun r ->
      if r.name <> "simple-moonshot" && r.report.Mc_report.max_committed = 0
      then failwith (Printf.sprintf "mc smoke: %s never committed" r.name))
    rows;
  print_table rows

(* Sub-second tripwire for the sampling modes: swarm determinism across
   jobs, per-walk seed separation, and symmetry/baseline agreement on a
   tiny exhaustive world. *)
let swarm_smoke () =
  let cfg = Checker.config ~n:4 ~view_bound:2 ~timer_budget:1 () in
  let s1 = Checker.swarm ~jobs:1 Kind.Simple_moonshot ~walks:24 ~depth:40 ~seed:7 cfg in
  let s4 = Checker.swarm ~jobs:4 Kind.Simple_moonshot ~walks:24 ~depth:40 ~seed:7 cfg in
  if s1 <> s4 then failwith "mc swarm smoke: jobs=1 and jobs=4 reports differ";
  let s7 = Checker.swarm ~jobs:1 Kind.Simple_moonshot ~walks:24 ~depth:40 ~seed:8 cfg in
  if Int64.equal s1.Mc_report.sw_fingerprint s7.Mc_report.sw_fingerprint then
    failwith "mc swarm smoke: distinct seeds produced identical walk sets";
  if s1.Mc_report.sw_violations <> [] then
    failwith "mc swarm smoke: unexpected violation";
  (* Symmetry agreement: same verdicts, no larger digest set. *)
  let tiny = Checker.config ~n:5 ~view_bound:1 ~timer_budget:1 () in
  let base = Checker.check ~jobs:1 Kind.Simple_moonshot tiny in
  let sym =
    Checker.check ~jobs:1 Kind.Simple_moonshot
      { tiny with Checker.symmetry = true }
  in
  let verdict (r : Mc_report.t) =
    ( List.length r.Mc_report.violations,
      r.Mc_report.max_committed,
      r.Mc_report.deadlocks,
      r.Mc_report.stats.Mc_report.exhausted )
  in
  if verdict base <> verdict sym then
    failwith "mc swarm smoke: symmetry changed the verdict";
  if
    sym.Mc_report.stats.Mc_report.states_visited
    > base.Mc_report.stats.Mc_report.states_visited
  then failwith "mc swarm smoke: symmetry enlarged the state space";
  Format.printf
    "mc swarm smoke: fingerprint=%Lx distinct=%d sym-states=%d/%d ok@."
    s1.Mc_report.sw_fingerprint s1.Mc_report.sw_distinct
    sym.Mc_report.stats.Mc_report.states_visited
    base.Mc_report.stats.Mc_report.states_visited
