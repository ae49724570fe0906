(* Benchmark harness reproducing every table and figure of the paper's
   evaluation.

     dune exec bench/main.exe                     # everything, scaled down
     dune exec bench/main.exe -- table3           # one experiment
     dune exec bench/main.exe -- fig9 --full      # paper-scale parameters
     dune exec bench/main.exe -- all --jobs 4     # grid runs on 4 domains
     dune exec bench/main.exe -- smoke            # tiny grid, CI tripwire

   Experiments: table1 table2 table3 fig6 fig7 fig8 fig9 fairness chaos
   clients ablations micro alloc mc mc-smoke mc-swarm-smoke smoke n1000 all

   [alloc] prints the per-layer allocation split of the [wan-n100],
   [lan-longchain], [chaos-clients] and [net-wal] benchmark workloads (see
   Alloc_split); it writes no BENCH file.

   [mc], [chaos] and [clients] write BENCH_mc.json, BENCH_faults.json and
   BENCH_clients.json through Bench_file: each file's rows are built once
   and the printed table shows a subset of their fields.

   [mc] explores the model checker's exhaustive worlds and writes
   BENCH_mc.json (states/second, pruning ratio); [--full] uses the
   view-bound-3 acceptance worlds (under a minute per protocol).

   [n1000] runs the beyond-paper scale sweep.

   [--jobs N] fans independent grid runs out over N domains; the printed
   tables are byte-identical whatever N is (results are collected in
   submission order, printing stays on the main domain). *)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|table2|table3|fig6|fig7|fig8|fig9|fairness|chaos|clients|ablations|micro|alloc|mc|mc-smoke|mc-swarm-smoke|smoke|n1000|all] \
     [--full] [--jobs N]";
  exit 1

let parse_args args =
  let full = ref false in
  let jobs = ref None in
  let targets = ref [] in
  let set_jobs s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> jobs := Some n
    | Some _ | None -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        go rest
    | "--jobs" :: n :: rest ->
        set_jobs n;
        go rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        go rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | target :: rest ->
        targets := target :: !targets;
        go rest
  in
  go args;
  let targets = match List.rev !targets with [] -> [ "all" ] | ts -> ts in
  (!full, !jobs, targets)

let () =
  Bft_parallel.Parallel.tune_gc ();
  let full, jobs_flag, targets =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  let jobs = Option.value jobs_flag ~default:1 in
  let scale =
    let base =
      if full then Experiments.full_scale else Experiments.default_scale
    in
    { base with Experiments.jobs }
  in
  let dispatch target =
    match target with
    | "table1" ->
        Experiments.table1 ();
        Experiments.table1_empirical scale
    | "table2" -> Experiments.table2 ()
    | "table3" -> Experiments.table3 scale
    | "fig6" -> Experiments.fig6 scale
    | "fig7" -> Experiments.fig7 scale
    | "fig8" -> Experiments.fig8 scale
    | "fig9" -> Experiments.fig9 scale
    | "fairness" -> Experiments.fairness scale
    | "chaos" -> Experiments.chaos scale
    | "clients" -> Experiments.clients scale
    | "ablations" ->
        Experiments.ablation_bandwidth scale;
        Experiments.ablation_block_period scale;
        Experiments.ablation_lso scale
    | "micro" -> Micro.run ()
    | "alloc" -> Alloc_split.run ()
    | "n1000" -> Experiments.scale_beyond scale
    | "mc" -> Mc.run ~jobs ~full ()
    | "mc-smoke" -> Mc.smoke ()
    | "mc-swarm-smoke" -> Mc.swarm_smoke ()
    | "smoke" ->
        (* Tiny grid on 2 domains (unless --jobs overrides), exercised
           from [dune runtest]: keeps the bench binary, the experiment
           driver and the domain pool from rotting without paying for a
           real evaluation run. *)
        let scale =
          match jobs_flag with
          | None -> Experiments.smoke_scale
          | Some jobs -> { Experiments.smoke_scale with Experiments.jobs }
        in
        Experiments.table3 scale;
        Experiments.fig9 scale;
        (* Sub-second chaos smoke: a randomized fault schedule through
           the real harness, fault interpreter and liveness monitor. *)
        Experiments.chaos scale;
        (* The client-traffic sweep at default scale, a few seconds: the
           full ingestion path under sub- and over-saturation load, and
           the BENCH_clients.json that the runtest rule compares with
           the committed fixture. *)
        Experiments.clients
          { Experiments.default_scale with Experiments.jobs = scale.jobs };
        (* Socket allocation-split smoke: the wrapped codec, WAL encoder
           and handlers on a 20-block threads-mode run. *)
        Alloc_split.sockets ~blocks:20
    | other ->
        Format.printf "unknown experiment %S@." other;
        usage ()
  in
  let expanded =
    List.concat_map
      (function
        | "all" ->
            [ "table1"; "table2"; "table3"; "fig6"; "fig7"; "fig8"; "fig9";
              "fairness"; "chaos"; "clients"; "ablations"; "micro" ]
        | t -> [ t ])
      targets
  in
  List.iter dispatch expanded
