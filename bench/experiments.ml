(* Reproduction of the paper's evaluation (Section VI): one function per
   table/figure, each printing the same rows/series the paper reports.

   Default mode scales the experiments down (smaller networks, shorter
   simulated runs, one seed) so the whole suite finishes in a few minutes;
   [--full] approaches paper scale (n up to 200, 60 s simulated, 3 seeds).
   Scaling preserves the shapes the paper argues from: who wins, by what
   factor, and where the crossovers fall. *)

open Bft_runtime
module Schedules = Bft_workload.Schedules
module Payload_profile = Bft_workload.Payload_profile
module Table = Bft_stats.Table
module Parallel = Bft_parallel.Parallel

type scale = {
  ns : int list;  (** Network sizes for the happy-path grid. *)
  payloads : int list;
  saturation_payloads : int list;  (** Figure 8's extended sweep. *)
  seeds : int list;
  duration_of_n : int -> float;  (** Simulated ms per run. *)
  failure_n : int;  (** Figure 9 network size. *)
  failure_f' : int;
  failure_delta : float;
  failure_duration : float;
  chaos_n : int;  (** Chaos grid network size. *)
  chaos_seeds : int list;  (** One randomized fault schedule per seed. *)
  chaos_duration : float;
  chaos_delta : float;
  clients_n : int;  (** Client-traffic sweep network size. *)
  clients_duration : float;  (** Simulated ms per client-traffic run. *)
  jobs : int;  (** Worker domains for independent grid runs ([--jobs]). *)
}

let default_scale =
  {
    ns = [ 10; 50; 100; 200 ];
    payloads = Payload_profile.happy_path_sizes;
    saturation_payloads = Payload_profile.saturation_sizes;
    seeds = [ 1 ];
    duration_of_n =
      (fun n -> if n <= 50 then 10_000. else if n <= 100 then 8_000. else 4_000.);
    failure_n = 40;
    failure_f' = 13;
    failure_delta = 500.;
    failure_duration = 150_000.;
    chaos_n = 7;
    chaos_seeds = [ 1; 2; 3; 4 ];
    chaos_duration = 12_000.;
    chaos_delta = 50.;
    clients_n = 10;
    clients_duration = 12_000.;
    jobs = 1;
  }

let full_scale =
  {
    default_scale with
    seeds = [ 1; 2; 3 ];
    duration_of_n = (fun _ -> 60_000.);
    failure_n = 100;
    failure_f' = 33;
    failure_delta = 500.;
    failure_duration = 300_000.;
    chaos_n = 10;
    chaos_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    chaos_duration = 30_000.;
    clients_duration = 30_000.;
  }

(* A deliberately tiny grid exercised from [dune runtest] (the [smoke]
   target) so the bench binary and the domain pool cannot silently rot. *)
let smoke_scale =
  {
    ns = [ 4; 7 ];
    payloads = [ 0; 1_800 ];
    saturation_payloads = [ 0; 1_800 ];
    seeds = [ 1 ];
    duration_of_n = (fun _ -> 3_000.);
    failure_n = 7;
    failure_f' = 2;
    failure_delta = 500.;
    failure_duration = 3_000.;
    chaos_n = 4;
    chaos_seeds = [ 1 ];
    chaos_duration = 3_000.;
    chaos_delta = 50.;
    clients_n = 4;
    clients_duration = 3_000.;
    jobs = 2;
  }

let protocols = Protocol_kind.paper
let moonshots =
  [ Protocol_kind.Simple_moonshot; Protocol_kind.Pipelined_moonshot;
    Protocol_kind.Commit_moonshot ]

(* --- shared happy-path grid ------------------------------------------------ *)

type cell = {
  protocol : Protocol_kind.t;
  n : int;
  payload : int;
  summary : Harness.summary;
}

let happy_config scale protocol ~n ~payload =
  {
    (Config.default protocol ~n) with
    Config.payload_bytes = payload;
    duration_ms = scale.duration_of_n n;
  }

let run_cell scale protocol ~n ~payload =
  let cfg = happy_config scale protocol ~n ~payload in
  let summary = Harness.summarize (Harness.run_seeds cfg ~seeds:scale.seeds) in
  { protocol; n; payload; summary }

(* The Table III / Figure 6 / Figure 7 experiments share one grid of runs;
   compute it lazily once per process.  The grid's runs are independent, so
   they fan out over [scale.jobs] domains; [Parallel.map] returns them in
   submission order and all printing happens on this domain, which keeps
   the tables byte-identical whatever [jobs] is. *)
let grid_cache : (string, cell list) Hashtbl.t = Hashtbl.create 4

let happy_grid scale =
  let key = String.concat "," (List.map string_of_int scale.ns) in
  match Hashtbl.find_opt grid_cache key with
  | Some cells -> cells
  | None ->
      List.iter
        (fun n ->
          List.iter
            (fun payload ->
              Format.printf "  running n=%d p=%s ...@." n
                (Payload_profile.label payload))
            scale.payloads)
        scale.ns;
      Format.print_flush ();
      let tasks =
        List.concat_map
          (fun n ->
            List.concat_map
              (fun payload ->
                List.map (fun protocol -> (protocol, n, payload)) protocols)
              scale.payloads)
          scale.ns
      in
      let cells =
        Parallel.map ~jobs:scale.jobs
          (fun (protocol, n, payload) -> run_cell scale protocol ~n ~payload)
          tasks
      in
      Hashtbl.replace grid_cache key cells;
      cells

let find_cell cells protocol ~n ~payload =
  List.find
    (fun c -> c.protocol = protocol && c.n = n && c.payload = payload)
    cells

(* A table of formatted cells: [rows] under [headers].  The experiments
   that write a bench file print theirs from the file's rows instead
   ([Bench_file.print_columns]). *)
let print_table headers rows =
  let t = Table.create headers in
  List.iter (Table.add_row t) rows;
  Table.print Format.std_formatter t

(* --- Table I ----------------------------------------------------------------- *)

let table1 () =
  Format.printf "@.== Table I: theoretical comparison ==@.@.";
  Moonshot.Theory.print Format.std_formatter


(* Empirical check of Table I's latency column: on a uniform network where
   every message takes exactly one hop, steady-state commit latency lands on
   the hop multiples the theory predicts — 3 for the Moonshots, 5 for
   Jolteon, 7 for chained HotStuff — and block periods on 1 vs 2 hops. *)
let table1_empirical scale =
  Format.printf "@.== Table I, empirically: latency in exact message hops ==@.@.";
  let hop = 20. in
  let theory_commit = function
    | Protocol_kind.Simple_moonshot | Protocol_kind.Pipelined_moonshot
    | Protocol_kind.Commit_moonshot ->
        Moonshot.Theory.moonshot_commit_hops
    | Protocol_kind.Jolteon -> Moonshot.Theory.jolteon_commit_hops
    | Protocol_kind.Hotstuff -> 7
  in
  let theory_period = function
    | Protocol_kind.Simple_moonshot | Protocol_kind.Pipelined_moonshot
    | Protocol_kind.Commit_moonshot ->
        Moonshot.Theory.moonshot_block_period_hops
    | Protocol_kind.Jolteon | Protocol_kind.Hotstuff ->
        Moonshot.Theory.jolteon_block_period_hops
  in
  print_table
    [ "protocol"; "commit hops (theory)"; "commit hops (measured)";
      "period hops (theory)"; "period hops (measured)" ]
    (Parallel.map ~jobs:scale.jobs
       (fun protocol ->
         let cfg =
           {
             (Config.default protocol ~n:7) with
             Config.latency = Config.Uniform { base = hop; jitter = 0. };
             bandwidth_bps = None;
             model_cpu = false;
             delta_ms = 100.;
             duration_ms = 10_000.;
           }
         in
         let m = (Harness.run cfg).Harness.metrics in
         let period_hops =
           if m.Metrics.blocks_per_sec > 0. then
             1000. /. m.Metrics.blocks_per_sec /. hop
           else 0.
         in
         [
           Protocol_kind.short_name protocol;
           string_of_int (theory_commit protocol);
           Printf.sprintf "%.2f" (m.Metrics.avg_latency_ms /. hop);
           string_of_int (theory_period protocol);
           Printf.sprintf "%.2f" period_hops;
         ])
       Protocol_kind.all)

(* --- Table II ---------------------------------------------------------------- *)

let table2 () =
  Format.printf "@.== Table II: observed latencies between AWS regions (ms) ==@.@.";
  Bft_workload.Regions.print_table Format.std_formatter

(* --- Table III ----------------------------------------------------------------- *)

(* Throughput multiplier and latency ratio of each Moonshot protocol vs
   Jolteon per configuration; the table reports the per-protocol average
   with IQR outliers removed, as the paper does. *)
let table3 scale =
  Format.printf "@.== Table III: performance vs Jolteon (f'=0, outliers removed) ==@.@.";
  let cells = happy_grid scale in
  print_table
    [ "protocol"; "throughput x (avg)"; "latency %% (avg)"; "outlier configs" ]
    (List.map
       (fun p ->
         let ratios =
           List.concat_map
             (fun n ->
               List.filter_map
                 (fun payload ->
                   let m = find_cell cells p ~n ~payload in
                   let j = find_cell cells Protocol_kind.Jolteon ~n ~payload in
                   if j.summary.Harness.blocks_committed = 0. then None
                   else
                     Some
                       ( m.summary.Harness.blocks_committed
                         /. j.summary.Harness.blocks_committed,
                         m.summary.Harness.avg_latency_ms
                         /. j.summary.Harness.avg_latency_ms ))
                 scale.payloads)
             scale.ns
         in
         let kept, removed = Bft_stats.Outliers.iqr_filter_on ~value:fst ratios in
         let thr = Bft_stats.Descriptive.mean (List.map fst kept) in
         let lat = Bft_stats.Descriptive.mean (List.map snd kept) in
         [
           Protocol_kind.short_name p;
           Printf.sprintf "%.2fx" thr;
           Printf.sprintf "%.0f%%" (lat *. 100.);
           string_of_int (List.length removed);
         ])
       moonshots);
  Format.printf
    "@.(paper: ~1.5x the blocks at 50-60%% of Jolteon's latency on average)@."

(* --- Figures 6 and 7 ------------------------------------------------------------- *)

(* One row per (n, payload) configuration of the happy grid: [n], the
   payload, then [cols ~n ~payload p] for each protocol [p] in [ps], under
   the headers [p ^ h] for each [h] in [suffixes]. *)
let grid_table scale ps suffixes cols =
  print_table
    ([ "n"; "payload" ]
    @ List.concat_map
        (fun p -> List.map (( ^ ) (Protocol_kind.short_name p)) suffixes)
        ps)
    (List.concat_map
       (fun n ->
         List.map
           (fun payload ->
             [ string_of_int n; Payload_profile.label payload ]
             @ List.concat_map (cols ~n ~payload) ps)
           scale.payloads)
       scale.ns)

let fig6 scale =
  Format.printf "@.== Figure 6: performance overview (f'=0, p <= 1.8MB) ==@.@.";
  let cells = happy_grid scale in
  grid_table scale protocols [ " blk/s"; " lat(ms)" ] (fun ~n ~payload p ->
      let c = find_cell cells p ~n ~payload in
      [
        Printf.sprintf "%.2f" c.summary.Harness.blocks_per_sec;
        Printf.sprintf "%.0f" c.summary.Harness.avg_latency_ms;
      ]);
  Format.printf
    "@.(paper trends: throughput halves / latency doubles per decade of p;@. \
     all protocols degrade with n; Moonshots beat Jolteon in both metrics;@. \
     CM's latency advantage grows with p)@."

let fig7 scale =
  Format.printf "@.== Figure 7: performance vs Jolteon, per configuration ==@.@.";
  let cells = happy_grid scale in
  grid_table scale moonshots [ " thr x"; " lat x" ] (fun ~n ~payload p ->
      let j = find_cell cells Protocol_kind.Jolteon ~n ~payload in
      let c = find_cell cells p ~n ~payload in
      if j.summary.Harness.blocks_committed = 0. then [ "-"; "-" ]
      else
        [
          Printf.sprintf "%.2f"
            (c.summary.Harness.blocks_committed
            /. j.summary.Harness.blocks_committed);
          Printf.sprintf "%.2f"
            (c.summary.Harness.avg_latency_ms
            /. j.summary.Harness.avg_latency_ms);
        ])

(* --- Figure 8 ---------------------------------------------------------------------- *)

let fig8 scale =
  let n = List.fold_left max 0 scale.ns in
  Format.printf "@.== Figure 8: throughput vs latency (n=%d, f'=0, p <= 9MB) ==@.@." n;
  print_table
    [ "protocol"; "payload"; "transfer MB/s"; "latency ms" ]
    (Parallel.map ~jobs:scale.jobs
       (fun (protocol, payload) ->
         let cell = run_cell scale protocol ~n ~payload in
         [
           Protocol_kind.short_name cell.protocol;
           Payload_profile.label cell.payload;
           Printf.sprintf "%.2f" (cell.summary.Harness.transfer_rate_bps /. 1e6);
           Printf.sprintf "%.0f" cell.summary.Harness.avg_latency_ms;
         ])
       (List.concat_map
          (fun protocol ->
            List.map (fun payload -> (protocol, payload))
              scale.saturation_payloads)
          protocols));
  Format.printf
    "@.(paper: all Moonshots reach a higher max transfer rate at lower latency@. \
     than Jolteon, CM best)@."

(* --- Figure 9 ------------------------------------------------------------------------ *)

let fig9 scale =
  Format.printf
    "@.== Figure 9: behaviour under failures (n=%d, f'=%d, p=0, Delta=%.0fms) ==@.@."
    scale.failure_n scale.failure_f' scale.failure_delta;
  print_table
    [ "schedule"; "protocol"; "blocks"; "blk/s"; "latency ms" ]
    (Parallel.map ~jobs:scale.jobs
       (fun (schedule, protocol) ->
         let cfg =
           {
             (Config.default protocol ~n:scale.failure_n) with
             Config.f_actual = scale.failure_f';
             schedule;
             delta_ms = scale.failure_delta;
             duration_ms = scale.failure_duration;
             payload_bytes = 0;
           }
         in
         let s = Harness.summarize (Harness.run_seeds cfg ~seeds:scale.seeds) in
         [
           Schedules.name schedule;
           Protocol_kind.short_name protocol;
           Printf.sprintf "%.0f" s.Harness.blocks_committed;
           Printf.sprintf "%.2f" s.Harness.blocks_per_sec;
           Printf.sprintf "%.0f" s.Harness.avg_latency_ms;
         ])
       (List.concat_map
          (fun schedule -> List.map (fun p -> (schedule, p)) protocols)
          [ Schedules.Best_case; Schedules.Worst_moonshot;
            Schedules.Worst_jolteon ]));
  Format.printf
    "@.(paper: under WJ Jolteon collapses [~7x fewer blocks, ~50x latency vs \
     its B case];@. SM/PM commit every honest block under WM but with large \
     latency;@. CM stays near happy-path performance on every schedule)@."

(* --- Ablations ------------------------------------------------------------------------- *)

(* DESIGN.md ablation 3: disabling the egress bandwidth model collapses the
   beta/rho split and with it Commit Moonshot's latency edge on large
   blocks. *)
let ablation_bandwidth scale =
  Format.printf "@.== Ablation: egress bandwidth model (beta vs rho split) ==@.@.";
  let payload = 1_800_000 in
  print_table
    [ "bandwidth"; "protocol"; "latency ms"; "blk/s" ]
    (Parallel.map ~jobs:scale.jobs
       (fun ((label, bw), protocol) ->
         let cfg =
           {
             (happy_config scale protocol ~n:50 ~payload) with
             Config.bandwidth_bps = bw;
           }
         in
         let s = Harness.summarize (Harness.run_seeds cfg ~seeds:scale.seeds) in
         [
           label;
           Protocol_kind.short_name protocol;
           Printf.sprintf "%.0f" s.Harness.avg_latency_ms;
           Printf.sprintf "%.2f" s.Harness.blocks_per_sec;
         ])
       (List.concat_map
          (fun bw ->
            List.map
              (fun p -> (bw, p))
              [ Protocol_kind.Pipelined_moonshot; Protocol_kind.Commit_moonshot ])
          [ ("10 Gbps", Some Bft_workload.Regions.bandwidth_bps);
            ("infinite", None) ]));
  Format.printf
    "@.(with infinite bandwidth beta = rho and CM's edge over PM disappears)@."



(* Fairness (chain quality): the paper's introduction motivates frequent
   leader rotation with fairness — every node should get its blocks
   committed at an equal rate.  We report the committed-block share per
   proposer for a fair LCO run, and show how a non-reorg-resilient protocol
   (Jolteon) skews shares when some aggregators are Byzantine. *)
let fairness scale =
  Format.printf "@.== Fairness: committed blocks per proposer ==@.@.";
  let n = 12 and f' = 3 in
  print_table
    [ "protocol"; "schedule"; "min share"; "max share"; "honest proposers" ]
    (Parallel.map ~jobs:scale.jobs
       (fun (protocol, schedule) ->
         let cfg =
           {
             (Config.default protocol ~n) with
             Config.f_actual = f';
             schedule;
             duration_ms = scale.failure_duration;
             delta_ms = scale.failure_delta;
           }
         in
         let quality = Metrics.chain_quality (Harness.run cfg).Harness.metrics in
         let honest = List.filter (fun (p, _) -> p < n - f') quality in
         let total =
           float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 honest)
         in
         let shares = List.map (fun (_, c) -> float_of_int c /. total) honest in
         (* A run that commits no honest block has no shares. *)
         let share stat =
           if shares = [] then "-"
           else Printf.sprintf "%.1f%%" (100. *. stat shares)
         in
         [
           Protocol_kind.short_name protocol;
           Schedules.name schedule;
           share Bft_stats.Descriptive.min;
           share Bft_stats.Descriptive.max;
           string_of_int (List.length honest);
         ])
       [
         (Protocol_kind.Commit_moonshot, Schedules.Round_robin);
         (Protocol_kind.Commit_moonshot, Schedules.Worst_jolteon);
         (Protocol_kind.Jolteon, Schedules.Round_robin);
         (Protocol_kind.Jolteon, Schedules.Worst_jolteon);
       ]);
  Format.printf
    "@.(reorg resilience keeps every honest proposer's share near 1/honest;@.      Jolteon under WJ starves the proposers scheduled before Byzantine@.      aggregators)@."

(* DESIGN.md ablation: the LSO (leader-speaks-once) variant drops the
   normal re-proposal after an optimistic one.  Under an equivocating
   proposer the next honest leader's optimistic proposal extends an
   uncertified block; unable to correct itself, it produces no certified
   block at all — measurable as lost throughput vs the LCO implementation. *)
let ablation_lso scale =
  Format.printf "@.== Ablation: LCO vs LSO (reorg resilience) ==@.@.";
  let cfg =
    {
      (happy_config scale Protocol_kind.Pipelined_moonshot ~n:8 ~payload:0) with
      Config.byzantine = [ (0, Byzantine.Equivocate) ];
      duration_ms = 60_000.;
    }
  in
  print_table
    [ "variant"; "blocks committed"; "avg latency ms" ]
    (Parallel.map ~jobs:scale.jobs
       (fun (label, (module P : Bft_types.Protocol_intf.S
                       with type msg = Moonshot.Message.t)) ->
         let s =
           Harness.summarize
             (List.map
                (fun seed ->
                  Harness.run_protocol (module P) { cfg with Config.seed })
                scale.seeds)
         in
         [
           label;
           Printf.sprintf "%.0f" s.Harness.blocks_committed;
           Printf.sprintf "%.0f" s.Harness.avg_latency_ms;
         ])
       [
         ("LCO (paper)", (module Moonshot.Pipelined_node.Protocol));
         ("LSO", (module Moonshot.Pipelined_node.Lso_protocol));
       ]);
  Format.printf
    "@.(an equivocating proposer each cycle makes optimistic proposals fail;@.      the LCO leader corrects itself with a normal proposal, the LSO leader@.      cannot, losing its view as well)@."

(* DESIGN.md ablation 2: the optimistic-proposal + vote-multicast pair is
   what buys omega = delta; quantified against Jolteon whose leaders wait
   for certification (omega = 2 delta). *)
let ablation_block_period scale =
  Format.printf "@.== Ablation: block period (optimistic proposal) ==@.@.";
  print_table
    [ "protocol"; "blocks/s"; "period ms (approx)" ]
    (Parallel.map ~jobs:scale.jobs
       (fun protocol ->
         let cfg = happy_config scale protocol ~n:50 ~payload:0 in
         let s = Harness.summarize (Harness.run_seeds cfg ~seeds:scale.seeds) in
         [
           Protocol_kind.short_name protocol;
           Printf.sprintf "%.2f" s.Harness.blocks_per_sec;
           (if s.Harness.blocks_per_sec > 0. then
              Printf.sprintf "%.0f" (1000. /. s.Harness.blocks_per_sec)
            else "-");
         ])
       protocols);
  Format.printf "@.(Moonshot periods sit near one WAN hop; Jolteon near two)@."

(* --- chaos: randomized fault schedules ------------------------------------- *)

(* Crash-recovery robustness grid: every protocol runs a randomized fault
   schedule (crashes + recoveries, partitions, loss, delay spikes — all
   inside the f budget) per seed, with the online liveness monitor armed.
   A run that returns at all has passed every safety and liveness check;
   the table reports how fast recovered nodes caught up and how long the
   longest post-disruption commit gap was.  Results also land in
   BENCH_faults.json (no wall-clock inside [runs], so that array is
   deterministic). *)

module Fault_schedule = Bft_faults.Fault_schedule
module Json = Bft_stats.Json
module Live = Bft_obs.Liveness

let ms x = Json.Float (0, x)
let ms_opt = function Some x -> ms x | None -> Json.Null

(* Recovery to quorum height, if it came. *)
let catch_up_ms (r : Live.recovery) =
  Option.map (fun t -> t -. r.Live.recovered_at_ms) r.Live.caught_up_at_ms

let chaos_run scale ~n ~f (protocol, seed) =
  let faults =
    Fault_schedule.random
      ~rng:(Bft_sim.Rng.create (0x0c4a05 + seed))
      ~n ~f ~duration:scale.chaos_duration ~delta:scale.chaos_delta
  in
  let r =
    Harness.run
      {
        (Config.local protocol ~n) with
        Config.delta_ms = scale.chaos_delta;
        duration_ms = scale.chaos_duration;
        seed;
        faults;
      }
  in
  let fs = Option.get r.Harness.fault_summary in
  let live = fs.Harness.liveness in
  let catch_ups = List.filter_map catch_up_ms live.Live.recoveries in
  Json.
    [
      ("protocol", String (Protocol_kind.short_name protocol));
      ("seed", Int seed);
      ("schedule", String (Fault_schedule.to_string faults));
      ("crashes", Int (Fault_schedule.crash_count faults));
      ("blocks", Int r.Harness.metrics.Metrics.committed_blocks);
      ("max_commit_gap_ms", ms live.Live.max_quorum_gap_ms);
      ("messages_during_heal", Int fs.Harness.messages_during_heal);
      ("liveness_checks", Int live.Live.checks_passed);
      ( "catch_up_mean_ms",
        if catch_ups = [] then Null
        else ms (Bft_stats.Descriptive.mean catch_ups) );
      ( "recoveries",
        List
          (List.map
             (fun (rc : Live.recovery) ->
               Obj
                 [
                   ("node", Int rc.Live.node);
                   ("crash_ms", ms rc.Live.crashed_at_ms);
                   ("recover_ms", ms rc.Live.recovered_at_ms);
                   ("catch_up_ms", ms_opt (catch_up_ms rc));
                 ])
             live.Live.recoveries) );
    ]

(* One live-socket crash/recover run (threads mode, 4 nodes).  Unlike the
   simulator rows these are wall-clock measurements, so the [net] block
   of BENCH_faults.json varies run to run — it reports what real crash
   recovery costs on this machine, not a deterministic fixture. *)
let chaos_net_run protocol =
  let n = 4 and blocks = 30 in
  let faults =
    match Fault_schedule.of_string "crash@80:1;recover@260:1" with
    | Ok f -> f
    | Error e -> failwith e
  in
  let cfg =
    {
      (Net_harness.config protocol ~n ~blocks) with
      Bft_net.Tcp.delta_ms = 150.;
      link_delay_ms = 3.;
      faults;
      timeout_ms = 20_000.;
    }
  in
  let r = Net_harness.run protocol cfg in
  let live = Net_harness.net_liveness r ~delta:150. in
  let sum f = Array.fold_left (fun acc nr -> acc + f nr) 0 r.Bft_net.Tcp.nodes in
  let recovery_ms, catch_up =
    match live.Live.recoveries with
    | rc :: _ ->
        ( ms (rc.Live.recovered_at_ms -. rc.Live.crashed_at_ms),
          ms_opt (catch_up_ms rc) )
    | [] -> (Json.Null, Json.Null)
  in
  Json.
    [
      ("protocol", String (Protocol_kind.short_name protocol));
      ("schedule", String (Fault_schedule.to_string faults));
      ("mode", String "threads");
      ("wall_ms", ms r.Bft_net.Tcp.wall_ms);
      ("recovery_ms", recovery_ms);
      ("catch_up_ms", catch_up);
      ("reconnect_attempts", Int (sum (fun nr -> nr.Bft_net.Tcp.reconnects)));
      ("restarts", Int (sum (fun nr -> nr.Bft_net.Tcp.restarts)));
      ("healing_bytes", Int (sum (fun nr -> nr.Bft_net.Tcp.bytes_heal)));
    ]

let chaos scale =
  let n = scale.chaos_n in
  let f = (n - 1) / 3 in
  Format.printf "@.== Chaos: randomized fault schedules (n=%d, f=%d) ==@.@." n f;
  let tasks =
    List.concat_map
      (fun protocol -> List.map (fun seed -> (protocol, seed)) scale.chaos_seeds)
      protocols
  in
  let runs = Parallel.map ~jobs:scale.jobs (chaos_run scale ~n ~f) tasks in
  Bench_file.print_columns
    [ "protocol"; "seed"; "crashes"; "blocks"; "catch_up_mean_ms";
      "max_commit_gap_ms"; "messages_during_heal"; "liveness_checks" ]
    runs;
  (* Socket leg: the same crash/recover story on real TCP connections,
     threads mode, one run per protocol.  Sequential on purpose — each
     run owns the process's signal handling and ephemeral ports. *)
  Format.printf "@.-- live sockets (threads mode, n=4, crash node 1) --@.@.";
  let net = List.map chaos_net_run protocols in
  Bench_file.print_columns
    [ "protocol"; "wall_ms"; "recovery_ms"; "catch_up_ms";
      "reconnect_attempts"; "healing_bytes" ]
    net;
  Bench_file.write "BENCH_faults.json" ~schema:"bench_faults/v3"
    [ ("runs", Bench_file.array runs); ("net", Bench_file.array net) ];
  Format.printf
    "@.(every row survived its schedule: zero safety violations, every@.      liveness checkpoint met; catch-up = recovery to quorum height;@.      the net block reports wall-clock healing cost on real sockets;@.      details in BENCH_faults.json)@."

(* --- clients: sustained-saturation ingestion sweeps ------------------------- *)

(* Client-perceived end-to-end latency (submit -> quorum commit of the
   containing block) under an open-loop stream from a million clients,
   swept below, at and above each protocol's saturation point.  Capacity
   is calibrated per protocol from a traffic-free run of the same config
   (drain rate = blocks/s x max_batch), so "1.5x" means the same thing
   for a 13 ms Moonshot block period and a 4-hop HotStuff one.  The
   sub-saturation rows isolate queueing delay — Moonshot's delta block
   period versus 2-delta designs, the paper's end-to-end argument — and
   the over-saturation rows show admission control holding the line:
   bounded queues, typed rejections, zero loss.  Everything here is
   simulated time, so BENCH_clients.json is a deterministic fixture. *)

let clients_config scale protocol ~n =
  {
    (Config.local protocol ~n) with
    Config.duration_ms = scale.clients_duration;
  }

let clients_multipliers = [ 0.5; 0.9; 1.5 ]
let clients_population = 1_000_000
let clients_max_batch = 256

let clients_spec ~rate =
  {
    Bft_mempool.Spec.default with
    Bft_mempool.Spec.clients = clients_population;
    rate_per_s = rate;
    lanes = 8;
    lane_capacity = 2_048;
    backlog_capacity = 2_048;
    max_batch = clients_max_batch;
    clock = Bft_mempool.Spec.Wall;
  }

(* One protocol's sweep, one row per load multiplier. *)
let clients_runs scale ~n protocol =
  (* Calibration: the same config with no client traffic measures block
     throughput, which bounds the drain rate at [max_batch] commands per
     block.  Deterministic, so the swept rates (and the committed JSON)
     are too. *)
  let cal = Harness.run (clients_config scale protocol ~n) in
  let capacity =
    cal.Harness.metrics.Metrics.blocks_per_sec *. float_of_int clients_max_batch
  in
  List.map
    (fun m ->
      let rate = capacity *. m in
      let r =
        Harness.run
          {
            (clients_config scale protocol ~n) with
            Config.clients = Some (clients_spec ~rate);
          }
      in
      let s = Option.get r.Harness.client_summary in
      let open Bft_mempool.Ingest in
      let lanes = s.per_lane_committed in
      Json.
        [
          ("protocol", String (Protocol_kind.short_name protocol));
          ("multiplier", Float (2, m));
          ("rate_per_s", ms rate);
          ("capacity_per_s", ms capacity);
          ("blocks", Int r.Harness.metrics.Metrics.committed_blocks);
          ("submitted", Int s.submitted);
          ("admitted", Int s.admitted);
          ("deferred", Int s.deferred);
          ("rejected", Int s.rejected);
          ("committed", Int s.committed);
          ("pending", Int s.pending);
          ("backlogged", Int s.backlogged);
          ( "throughput_per_s",
            ms (float_of_int s.committed /. (scale.clients_duration /. 1000.)) );
          ("p50_ms", Float (1, s.lat.p50_ms));
          ("p90_ms", Float (1, s.lat.p90_ms));
          ("p99_ms", Float (1, s.lat.p99_ms));
          ("mean_ms", Float (1, s.lat.mean_ms));
          ("max_ms", Float (1, s.lat.max_ms));
          ("lane_committed_min", Int (Array.fold_left min max_int lanes));
          ("lane_committed_max", Int (Array.fold_left max 0 lanes));
          ("dissemination_bytes", Int s.dissemination_bytes);
        ])
    clients_multipliers

let clients scale =
  let n = scale.clients_n in
  Format.printf
    "@.== Client traffic at saturation (n=%d, %d clients, max batch %d) ==@.@."
    n clients_population clients_max_batch;
  (* All five protocols, not just the paper's four: the HotStuff baseline's
     longer commit path is exactly what the queueing comparison is about. *)
  let runs =
    List.concat
      (Parallel.map ~jobs:scale.jobs (clients_runs scale ~n) Protocol_kind.all)
  in
  Bench_file.print_columns
    [ "protocol"; "multiplier"; "rate_per_s"; "submitted"; "committed";
      "rejected"; "p50_ms"; "p99_ms"; "pending"; "backlogged";
      "lane_committed_min"; "lane_committed_max" ]
    runs;
  Bench_file.write "BENCH_clients.json" ~schema:"bench_clients/v2"
    [ ("clients", Int clients_population); ("runs", Bench_file.array runs) ];
  Format.printf
    "@.(open-loop arrivals; load is relative to each protocol's calibrated@.\
    \      drain capacity (blocks/s x max batch); latency is submit to@.\
    \      quorum commit of the containing block; over-saturation rows@.\
    \      shed load by typed rejection, never silently; details in@.\
    \      BENCH_clients.json)@."

(* --- beyond-paper scale (n = 1000) ------------------------------------------ *)

(* Dedicated [n1000] target, deliberately not part of [all]: the paper's
   evaluation stops at n = 200, and this sweep shows the rewritten core
   pushing the same WAN model five times further.  Empty payloads isolate
   protocol traffic — the O(n^2)-per-view vote fan-out the engine's batch
   path and message pools exist for.  The run counts printed (events,
   messages) are simulation outputs, so the table stays byte-identical
   whatever [--jobs] is. *)
let scale_beyond scale =
  Format.printf
    "@.== Beyond paper scale: protocol traffic up to n=1000 (p=0) ==@.@.";
  let ns = [ 200; 500; 1000 ] in
  let ps = [ Protocol_kind.Pipelined_moonshot; Protocol_kind.Jolteon ] in
  print_table
    [ "n"; "protocol"; "blocks"; "blk/s"; "latency ms"; "events"; "msgs" ]
    (Parallel.map ~jobs:scale.jobs
       (fun (n, protocol) ->
         let cfg =
           {
             (Config.default protocol ~n) with
             Config.payload_bytes = 0;
             duration_ms = 2_000.;
           }
         in
         let results = Harness.run_seeds cfg ~seeds:scale.seeds in
         let sum f = List.fold_left (fun a r -> a + f r) 0 results in
         let s = Harness.summarize results in
         [
           string_of_int n;
           Protocol_kind.short_name protocol;
           Printf.sprintf "%.0f" s.Harness.blocks_committed;
           Printf.sprintf "%.2f" s.Harness.blocks_per_sec;
           Printf.sprintf "%.0f" s.Harness.avg_latency_ms;
           string_of_int (sum (fun r -> r.Harness.events_processed));
           string_of_int (sum (fun r -> r.Harness.messages_sent));
         ])
       (List.concat_map (fun n -> List.map (fun p -> (n, p)) ps) ns));
  Format.printf
    "@.(the paper's evaluation stops at n=200; same WAN model and protocol@.      stacks, 2 s simulated per run)@."
