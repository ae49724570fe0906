(* Model-checker throughput benchmark.

   Explores the standard exhaustive worlds (n = 4, the deepest bounds that
   stay under a minute per protocol single-core) and reports states/second
   and the reduction stack's pruning ratios, runs the n = 5 symmetry
   acceptance comparison (canonicalized run exhausts; baseline gets the
   same wall-clock budget and is cut off), samples a swarm block per
   protocol, then writes BENCH_mc.json (schema bench_mc/v2) so successive
   PRs can diff checker performance.  [smoke] is the sub-second `dune runtest` tripwire: tiny
   worlds through the full checker stack, failing loudly on any violation,
   deadlock or non-exhaustion.  [swarm_smoke] is its sampling-mode twin:
   jobs-determinism, seed-separation and symmetry-agreement checks on tiny
   worlds. *)

open Bft_mc
module Kind = Bft_runtime.Protocol_kind

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

let print_table rows =
  Format.printf "@.%-20s %10s %10s %8s %8s %9s %7s %6s@." "protocol" "states"
    "states/s" "digest%" "sleep%" "depth<=" "commits" "wall";
  List.iter
    (fun r ->
      let s = r.report.Mc_report.stats in
      Format.printf "%-20s %10d %10.0f %7.0f%% %7.0f%% %9d %7d %5.1fs@." r.name
        s.Mc_report.states_visited (states_per_sec r)
        (100. *. Mc_report.digest_prune_ratio s)
        (100. *. Mc_report.sleep_prune_ratio s)
        s.Mc_report.max_depth_seen r.report.Mc_report.max_committed r.wall_s)
    rows

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
  let pr tag r =
    let s = r.report.Mc_report.stats in
    Format.printf "  %-10s states=%d transitions=%d exhausted=%b wall=%.1fs@."
      tag s.Mc_report.states_visited s.Mc_report.transitions
      s.Mc_report.exhausted r.wall_s
  in
  pr "symmetry" sym;
  pr "baseline" base;
  if base.report.Mc_report.stats.Mc_report.exhausted then
    Format.printf
      "  note: baseline finished inside the symmetry budget on this host@.";
  (sym, base)

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

let print_swarm rows =
  Format.printf "@.%-20s %7s %8s %9s %9s %9s %6s@." "protocol" "walks"
    "walks/s" "steps" "distinct" "coverage" "wall";
  List.iter
    (fun r ->
      let sw = r.s_sw in
      Format.printf "%-20s %7d %8.0f %9d %9d %9.1f %5.1fs@." r.s_name
        sw.Mc_report.sw_walks
        (if r.s_wall > 0. then float_of_int sw.Mc_report.sw_walks /. r.s_wall
         else 0.)
        sw.Mc_report.sw_steps sw.Mc_report.sw_distinct (Mc_report.coverage sw)
        r.s_wall)
    rows

let swarm_guard r =
  if r.s_sw.Mc_report.sw_violations <> [] then
    failwith
      (Format.asprintf "mc bench: swarm %s found violations:@.%a" r.s_name
         Mc_report.pp_swarm r.s_sw);
  if r.s_sw.Mc_report.sw_livelock_witness <> None then
    failwith (Printf.sprintf "mc bench: swarm %s found a livelock" r.s_name)

(* {2 JSON} *)

let write_json ~jobs ~path rows (sym, base) swarm_rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"schema\": \"bench_mc/v2\",\n";
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Buffer.add_string b "  \"worlds\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let s = r.report.Mc_report.stats in
      Printf.bprintf b
        "    {\"name\": %S, \"states\": %d, \"matched\": %d, \
         \"reexpanded\": %d, \"transitions\": %d, \"branches\": %d, \
         \"sleep_skips\": %d, \"digest_prune_ratio\": %.4f, \
         \"sleep_prune_ratio\": %.4f, \"max_depth\": %d, \"exhausted\": %b, \
         \"max_committed\": %d, \"violations\": %d, \"deadlocks\": %d, \
         \"livelocks\": %d, \"wall_clock_s\": %.3f, \"states_per_sec\": %.0f}"
        r.name s.Mc_report.states_visited s.Mc_report.states_matched
        s.Mc_report.states_reexpanded s.Mc_report.transitions
        s.Mc_report.branches s.Mc_report.sleep_skips
        (Mc_report.digest_prune_ratio s)
        (Mc_report.sleep_prune_ratio s)
        s.Mc_report.max_depth_seen s.Mc_report.exhausted
        r.report.Mc_report.max_committed
        (List.length r.report.Mc_report.violations)
        r.report.Mc_report.deadlocks r.report.Mc_report.livelocks r.wall_s
        (states_per_sec r))
    rows;
  Buffer.add_string b "\n  ],\n";
  let sym_entry tag r =
    let s = r.report.Mc_report.stats in
    Printf.bprintf b
      "    \"%s\": {\"states\": %d, \"transitions\": %d, \"exhausted\": %b, \
       \"wall_clock_s\": %.3f, \"states_per_sec\": %.0f}"
      tag s.Mc_report.states_visited s.Mc_report.transitions
      s.Mc_report.exhausted r.wall_s (states_per_sec r)
  in
  Buffer.add_string b "  \"symmetry_n5\": {\n";
  Printf.bprintf b
    "    \"world\": \"jolteon n=5 view<=3 timer-budget=2 reorder=2 crash@1\",\n";
  sym_entry "symmetry" sym;
  Buffer.add_string b ",\n";
  sym_entry "baseline_same_budget" base;
  Buffer.add_string b "\n  },\n";
  Buffer.add_string b "  \"swarm\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let sw = r.s_sw in
      Printf.bprintf b
        "    {\"name\": %S, \"walks\": %d, \"steps\": %d, \"distinct\": %d, \
         \"coverage\": %.2f, \"walks_per_sec\": %.0f, \"max_committed\": %d, \
         \"commitless\": %d, \"fingerprint\": \"%Lx\", \"wall_clock_s\": %.3f}"
        r.s_name sw.Mc_report.sw_walks sw.Mc_report.sw_steps
        sw.Mc_report.sw_distinct (Mc_report.coverage sw)
        (if r.s_wall > 0. then float_of_int sw.Mc_report.sw_walks /. r.s_wall
         else 0.)
        sw.Mc_report.sw_max_committed sw.Mc_report.sw_commitless
        sw.Mc_report.sw_fingerprint r.s_wall)
    swarm_rows;
  Buffer.add_string b "\n  ]\n}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents b));
  Format.printf "@.wrote %s: %d worlds, symmetry block, %d swarm rows@." path
    (List.length rows) (List.length swarm_rows)

let run ~jobs ~full () =
  Format.printf "model checker: n=4 exhaustive worlds%s@."
    (if full then " (full scale, view bound 3)" else "");
  let rows =
    List.map (fun kind -> run_one ~jobs kind (world ~full kind)) Kind.all
  in
  List.iter guard rows;
  print_table rows;
  let sym_cmp = run_symmetry ~jobs in
  let swarm_rows = List.map (run_swarm ~jobs ~walks:256 ~depth:48) Kind.all in
  List.iter swarm_guard swarm_rows;
  print_swarm swarm_rows;
  write_json ~jobs ~path:"BENCH_mc.json" rows sym_cmp swarm_rows

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
