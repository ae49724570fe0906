(* The benchmark: four workloads that load different layers, end-to-end
   metrics from untraced runs, per-layer metrics from one traced run plus
   probes, output checks, and [compare] for two result files.  See
   README.md in this directory. *)

module W = Workload
module Kind = W.Kind

let usage =
  "usage: main.exe [--workload W] [--seed S] [--reps R] [--seconds S] \
   [--trace 0|1] [--out F] [--spans F] [--benchmark BENCHMARK.json]\n\
  \       main.exe --smoke [--benchmark BENCHMARK.json]\n\
  \       main.exe compare A.json B.json [--benchmark BENCHMARK.json]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("benchmark: " ^ s);
      exit 2)
    fmt

(* {2 BENCHMARK.json} *)

type metric = { name : string; unit_ : string; better : string; bound : float }

type spec = { end_to_end : metric list; per_layer : metric list }

let load_spec path =
  match Json.of_file path with
  | Error e -> die "cannot read %s: %s" path e
  | Ok j ->
      let metrics key =
        List.map
          (fun m ->
            let str k = Option.bind (Json.member k m) Json.to_str in
            match (str "name", str "unit", str "better") with
            | Some name, Some unit_, Some better ->
                {
                  name;
                  unit_;
                  better;
                  bound =
                    Option.value ~default:0.
                      (Option.bind (Json.member "bound" m) Json.to_num);
                }
            | _ -> die "%s: malformed entry in %s" path key)
          (Json.to_list (Option.value ~default:Json.Null (Json.member key j)))
      in
      { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* {2 Statistics} *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the exclusive method), so this benchmark and tools reading its output
   agree on the spread. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let len = Array.length a in
  if len = 0 then (0., 0., 0.)
  else if len = 1 then (a.(0), a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let summary_json ~unit_ xs =
  let q1, med, q3 = quartiles xs in
  Json.Obj
    [
      ("median", Json.Num med);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("unit", Json.Str unit_);
      ("samples", Json.List (List.map (fun x -> Json.Num x) xs));
    ]

let median = W.median

(* {2 Provenance} *)

(* [git rev-parse HEAD] of the checkout itself, never of a repository
   above it; "unknown" outside a git checkout. *)
let git_commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let r, w = Unix.pipe ~cloexec:true () in
      let env = Array.append [| "GIT_DIR=.git" |] (Unix.environment ()) in
      let pid =
        Unix.create_process_env "git"
          [| "git"; "rev-parse"; "HEAD" |]
          env Unix.stdin w w
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 when line <> "" -> String.trim line
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

let provenance ~seed ~reps =
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ( "reps",
        match reps with Some r -> Json.Num (float_of_int r) | None -> Json.Str "default" );
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ( "timestamp",
        Json.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
             tm.Unix.tm_sec) );
    ]

(* {2 One workload} *)

type options = {
  seed : int;
  reps : int option;
  seconds : float option;
  trace : bool;
  spans : string option;
  smoke : bool;
}

let is_chaos (w : W.t) = w.W.name = W.chaos_clients.W.name

(* Timed repetitions without [--reps] or [--seconds]: more where a
   repetition varies more, on sockets and under faults with clients. *)
let default_reps (w : W.t) ~net = if net || is_chaos w then 5 else 3

(* The no-WAL repetitions [wal.overhead_pct] is measured from. *)
let nowal_reps = 3
let smoke_scale = 0.02
let rep_wall runs = Layers.fsum (fun r -> r.W.wall_s) runs

(* The wall time of one set-up: a 1 ms horizon on the simulator, a 1-block
   cluster on sockets. *)
let setup_wall (w : W.t) ~seed = rep_wall (W.run_rep ~timed:false (w.W.setup ~seed))

(* Set-up samples taken before each repetition, so that a run of three
   repetitions has six. *)
let setups_per_rep = 2

(* One set-up sample: the first set-up of a fresh child process of this
   program ([--setup-sample]), as a user's set-up starts from a fresh
   process too.  Samples taken within one process share its heap history,
   and their median moved by up to 50% from one process to the next. *)
let setup_sample (w : W.t) ~seed =
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--setup-sample"; "--workload"; w.W.name;
         "--seed"; string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match (Unix.waitpid [] pid, float_of_string_opt (String.trim out)) with
  | (_, Unix.WEXITED 0), Some s -> s
  | _ -> die "set-up sample of %s failed" w.W.name

(* Repetitions until at least [min_reps] ran and, with a deadline, until
   one more iteration plus [reserve_s rep] would overrun it, where an
   iteration is the set-up samples, a collection and a repetition, both
   estimated by their medians so far, and [reserve_s] is what must still
   run after the repetitions.  Set-up samples precede each repetition:
   spread over the whole run, they see the host the repetitions see, not
   one moment of it.  A shared host has slow spells of seconds in which a
   set-up takes up to 1.6 times as long.  Also returns the process's peak
   heap in MB after the first repetition: the peak only grows, with the
   heap's fragmentation, over the later ones, and their number depends on
   the host's speed. *)
let timed_reps ~min_reps ~deadline_ns ~reserve_s ~setup sub =
  let peak_heap_mb = ref 0. in
  let rec go reps setups iters k =
    let enough =
      k >= min_reps
      &&
      match deadline_ns with
      | None -> true
      | Some d ->
          let rep = median (List.map rep_wall reps) in
          Span.now_ns () + int_of_float ((median iters +. reserve_s rep) *. 1e9) > d
    in
    if enough then (List.rev reps, setups, !peak_heap_mb)
    else begin
      let t0 = Span.now_ns () in
      let s = List.init setups_per_rep (fun _ -> setup ()) in
      (* Garbage of the previous repetition is collected outside the timed
         region, so each repetition pays only for its own. *)
      Gc.full_major ();
      let rep = W.run_rep ~timed:false sub in
      let iter = float_of_int (Span.now_ns () - t0) *. 1e-9 in
      if k = 0 then
        peak_heap_mb :=
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
      go (rep :: reps) (s @ setups) (iter :: iters) (k + 1)
    end
  in
  go [] [] [] 0

(* The traced phase, in seconds, from the median untraced repetition: the
   traced run (span overhead up to 30%), the comparison runs of
   [traced_layers] and, within a second, the probes. *)
let traced_phase_s (w : W.t) ~net rep =
  let extra =
    if net then 0.8 *. float_of_int nowal_reps else if is_chaos w then 0.7 else 0.
  in
  ((1.3 +. extra) *. rep) +. 1.

let alloc_per_block runs =
  Layers.fsum (fun r -> r.W.alloc_bytes) runs
  /. Layers.fsum (fun r -> float_of_int r.W.blocks) runs

let events_per_s runs = Layers.fsum (fun r -> float_of_int r.W.events) runs /. rep_wall runs

let percentile p xs =
  if xs = [] then 0. else Bft_stats.Descriptive.percentile p xs

(* Attempted and failed operations: client commands (submitted, rejected)
   with clients, proposals (proposed, abandoned) without. *)
let operations (r : W.run) =
  match r.W.client with
  | Some c -> (c.W.submitted, c.W.rejected)
  | None -> (r.W.proposed, r.W.abandoned)

(* The paper's metrics and client latency for one CM run, with the sample
   count each rests on: [(name, value, unit, samples)]. *)
let paper_metrics (r : W.run) =
  let n = List.length r.W.latencies in
  let attempted, failed = operations r in
  [
    ("blocks", float_of_int r.W.blocks, "count", r.W.blocks);
    ("block_period_ms", r.W.period_ms, "ms", max 0 (r.W.blocks - 1));
    ("commit_p50_ms", percentile 50. r.W.latencies, "ms", n);
    ("commit_p90_ms", percentile 90. r.W.latencies, "ms", n);
    ( "failed_ratio",
      (if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted),
      "ratio",
      attempted );
  ]
  @ (match r.W.client with
    | Some c ->
        [
          ("client_p50_ms", c.W.client_p50_ms, "ms", c.W.client_samples);
          ("client_p99_ms", c.W.client_p99_ms, "ms", c.W.client_samples);
        ]
    | None -> [])
  @
  match r.W.outage_ms with
  | Some o -> [ ("outage_ms", o, "ms", 1) ]
  | None -> []

let cm runs = List.find (fun r -> r.W.protocol = Kind.Commit_moonshot) runs

(* Per-metric medians of [paper_metrics] over several CM runs. *)
let median_paper runs =
  let per = List.map paper_metrics runs in
  List.map
    (fun (name, _, unit_, _) ->
      let pick f =
        median (List.map (fun l -> f (List.find (fun (n, _, _, _) -> n = name) l)) per)
      in
      ( name,
        pick (fun (_, v, _, _) -> v),
        unit_,
        int_of_float (pick (fun (_, _, _, s) -> float_of_int s)) ))
    (List.hd per)

(* The first recorded pass (seed 1) holds the reference fingerprints. *)
let recorded_fingerprints ~bench_path (w : W.t) =
  let path =
    List.fold_left Filename.concat (Filename.dirname bench_path)
      [ "benchmark"; "baseline"; "pass1.json" ]
  in
  match Json.of_file path with
  | Error _ -> None
  | Ok j ->
      List.find_map
        (fun b ->
          if Option.bind (Json.member "workload" b) Json.to_str = Some w.W.name then
            Json.member "fingerprints" b
          else None)
        (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" j)))

let fingerprints runs = List.map (fun r -> (W.tag r.W.protocol, r.W.fingerprint)) runs

(* Output checks over the untraced repetitions: the runs' own checks, no
   degenerate run, and on the simulator repetitions that agree with each
   other and, for seed 1, with the recorded fingerprints. *)
let check_outputs ~bench_path (o : options) ~net (w : W.t) ~reps report =
  let problem fmt = Printf.ksprintf report fmt in
  List.iter
    (fun r ->
      List.iter (problem "%s: %s" (Kind.name r.W.protocol)) r.W.problems;
      if r.W.events = 0 || r.W.blocks = 0 then
        problem "%s: degenerate run (%d events, %d blocks)" (Kind.name r.W.protocol)
          r.W.events r.W.blocks)
    (List.concat reps);
  if not net then begin
    if List.length (List.sort_uniq compare (List.map fingerprints reps)) > 1 then
      problem "repetitions committed different chains";
    if o.seed = 1 && not o.smoke then
      let recorded = recorded_fingerprints ~bench_path w in
      List.iter
        (fun (tag, fp) ->
          match Option.bind (Option.bind recorded (Json.member tag)) Json.to_str with
          | Some expected when expected = fp -> ()
          | Some expected -> problem "%s: seed-1 fingerprint %s, recorded %s" tag fp expected
          | None -> problem "%s: no recorded seed-1 fingerprint" tag)
        (fingerprints (List.hd reps))
  end

(* The traced run and everything measured around it: per-layer values,
   with the raw spans written to [o.spans]. *)
let traced_layers (o : options) (w : W.t) ~net ~sub ~reps report =
  let problem fmt = Printf.ksprintf report fmt in
  let untraced_wall_s = median (List.map rep_wall reps) in
  let spans = Span.start ~n:w.W.n ~threaded:net in
  let traced = W.run_rep ~timed:true sub in
  Span.stop ();
  List.iter
    (fun r -> List.iter (problem "traced %s: %s" (Kind.name r.W.protocol)) r.W.problems)
    traced;
  if not net then
    List.iter2
      (fun (t : W.run) (u : W.run) ->
        if t.W.fingerprint <> u.W.fingerprint || t.W.events <> u.W.events then
          problem "traced %s run diverged from its untraced twin" (Kind.name t.W.protocol))
      traced (List.hd reps);
  Option.iter
    (fun path -> Out_channel.with_open_bin path (fun oc -> Span.raw_to_jsonl spans oc))
    o.spans;
  let trace_overhead_pct =
    match sub with
    | W.Sim cfg when is_chaos w ->
        let r =
          W.run_sim ~trace:(Bft_obs.Trace.create ()) ~timed:false (cfg Kind.Commit_moonshot)
        in
        if r.W.fingerprint <> (cm (List.hd reps)).W.fingerprint then
          problem "CM run with a trace sink diverged from its untraced twin";
        Layers.pct ~base:(median (List.map (fun runs -> (cm runs).W.wall_s) reps)) r.W.wall_s
    | W.Sim _ | W.Net _ -> 0.
  in
  let wal_overhead_pct =
    match sub with
    | W.Net cfg ->
        let nowal = W.Net (fun p -> { (cfg p) with W.Tcp.wal_dir = None }) in
        let walls =
          List.init (if o.smoke then 1 else nowal_reps) (fun _ ->
              Gc.full_major ();
              let runs = W.run_rep ~timed:false nowal in
              List.iter (fun r -> List.iter (problem "no-WAL run: %s") r.W.problems) runs;
              rep_wall runs)
        in
        Layers.pct ~base:(median walls) untraced_wall_s
    | W.Sim _ -> 0.
  in
  let inputs =
    {
      Layers.workload = w;
      net;
      spans;
      traced;
      untraced_wall_s;
      trace_overhead_pct;
      wal_overhead_pct;
      smoke = o.smoke;
    }
  in
  List.iter (problem "%s") (Layers.reconcile inputs);
  let values = Layers.compute inputs in
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then problem "per-layer metric %s is not finite" name)
    values;
  values

type outcome = {
  block : Json.t;  (** This workload's entry in the results file. *)
  e2e : (string * float) list;  (** Reported values. *)
  layers : (string * float) list;  (** Empty without a traced run. *)
  attempted : int;
  failed : int;
  problems : string list;
}

let unit_of metrics name =
  match List.find_opt (fun m -> m.name = name) metrics with
  | Some m -> m.unit_
  | None -> "?"

let run_workload ~spec ~bench_path (o : options) (w : W.t) =
  let problems = ref [] in
  let report s = problems := s :: !problems in
  let problem fmt = Printf.ksprintf report fmt in
  let scale = if o.smoke then smoke_scale else 1. in
  let t0 = Span.now_ns () in
  let sub = w.W.make ~seed:o.seed ~scale in
  let net = match sub with W.Net _ -> true | W.Sim _ -> false in
  if not o.smoke then ignore (W.run_rep ~timed:false (w.W.make ~seed:o.seed ~scale:0.1));
  let min_reps =
    match (o.reps, o.seconds) with
    | Some r, _ -> r
    | None, Some _ -> 3
    | None, None -> if o.smoke then 1 else default_reps w ~net
  in
  let deadline_ns = Option.map (fun s -> t0 + int_of_float (s *. 1e9)) o.seconds in
  let reserve_s = if o.trace then traced_phase_s w ~net else fun _ -> 0. in
  let reps, setup, peak_heap_mb =
    timed_reps ~min_reps ~deadline_ns ~reserve_s
      ~setup:(fun () -> setup_sample w ~seed:o.seed)
      sub
  in
  check_outputs ~bench_path o ~net w ~reps report;
  (* [(name, samples)]: every metric is reported as the median of its
     samples, one per repetition (set-up: two per repetition). *)
  let e2e = [ ("alloc_bytes_per_block", List.map alloc_per_block reps); ("setup_s", setup) ] in
  (* [(name, unit, samples)] of costs that are recorded, and printed by
     [compare], but carry no bound.  On a shared 2-core host the quartile
     spread of the wall-clock timings over ten consecutive runs reached 16%,
     and the peak heap of the socket workload, which queues more while the
     host is slow, moved by 11% from one set of ten runs to the next: more
     than a 10% bound can hold.  The peak heap is one number, read after
     the first repetition. *)
  let unbounded =
    [
      ("wall_s", "s", List.map rep_wall reps);
      ("events_per_s", "1/s", List.map events_per_s reps);
      ("peak_heap_mb", "MB", [ peak_heap_mb ]);
    ]
  in
  List.iter
    (fun (name, xs) ->
      if List.exists (fun x -> (not (Float.is_finite x)) || x <= 0.) xs then
        problem "end-to-end metric %s is not a positive number" name)
    (e2e @ List.map (fun (name, _, xs) -> (name, xs)) unbounded);
  let paper = median_paper (List.map cm reps) in
  let attempted, failed =
    List.fold_left
      (fun (a, f) r ->
        let a', f' = operations r in
        (a + a', f + f'))
      (0, 0) (List.concat reps)
  in
  let layers = if o.trace then traced_layers o w ~net ~sub ~reps report else [] in
  (* The metrics produced must be exactly the ones BENCHMARK.json lists. *)
  let check_names kind listed produced =
    let listed = List.sort compare (List.map (fun m -> m.name) listed) in
    let produced = List.sort compare (List.map fst produced) in
    if listed <> produced then
      problem "%s metrics differ from BENCHMARK.json: produced [%s], listed [%s]" kind
        (String.concat " " produced) (String.concat " " listed)
  in
  check_names "end-to-end" spec.end_to_end e2e;
  if o.trace then check_names "per-layer" spec.per_layer layers;
  if not o.smoke then begin
    List.iter
      (fun (name, xs) ->
        Printf.printf "%s %s %s %s\n" w.W.name name
          (Json.number_to_string (median xs))
          (unit_of spec.end_to_end name))
      e2e;
    List.iter
      (fun (name, unit_, xs) ->
        Printf.printf "%s %s %s %s (no bound)\n" w.W.name name
          (Json.number_to_string (median xs))
          unit_)
      unbounded;
    List.iter
      (fun (name, v, unit_, n) ->
        Printf.printf "%s cm.%s %s %s (n=%d)\n" w.W.name name (Json.number_to_string v) unit_
          n)
      paper;
    List.iter
      (fun (name, v) ->
        Printf.printf "%s %s %s %s\n" w.W.name name (Json.number_to_string v)
          (unit_of spec.per_layer name))
      layers
  end;
  let problems = List.rev !problems in
  let num x = Json.Num x in
  let value_json ?samples v unit_ =
    Json.Obj
      ([ ("value", num v); ("unit", Json.Str unit_) ]
      @ match samples with Some n -> [ ("samples", num (float_of_int n)) ] | None -> [])
  in
  let block =
    Json.Obj
      ([
         ("workload", Json.Str w.W.name);
         ("reps", num (float_of_int (List.length reps)));
         ( "end_to_end",
           Json.Obj
             (List.map
                (fun (name, xs) -> (name, summary_json ~unit_:(unit_of spec.end_to_end name) xs))
                e2e) );
         ( "unbounded",
           Json.Obj (List.map (fun (name, unit_, xs) -> (name, summary_json ~unit_ xs)) unbounded)
         );
         ( "cm",
           Json.Obj (List.map (fun (name, v, unit_, n) -> (name, value_json ~samples:n v unit_)) paper)
         );
         ( "fingerprints",
           Json.Obj
             (List.map
                (fun (t, fp) -> (t, Json.Str fp))
                (if net then [] else fingerprints (List.hd reps))) );
         ("attempted", num (float_of_int attempted));
         ("failed", num (float_of_int failed));
         ("problems", Json.List (List.map (fun p -> Json.Str p) problems));
       ]
      @
      if o.trace then
        [
          ( "per_layer",
            Json.Obj
              (List.map (fun (name, v) -> (name, value_json v (unit_of spec.per_layer name))) layers) );
        ]
      else [])
  in
  {
    block;
    e2e = List.map (fun (name, xs) -> (name, median xs)) e2e;
    layers;
    attempted;
    failed;
    problems;
  }

(* The last line of standard output: the per-run verdict a harness reads. *)
let result_line ~spec (o : options) (r : outcome) =
  let metrics, listed =
    if o.trace then (r.layers, spec.per_layer) else (r.e2e, spec.end_to_end)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.problems = []));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.filter_map
                (fun m ->
                  Option.map
                    (fun v -> (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
                    (List.assoc_opt m.name metrics))
                listed) );
       ])

let default_out = Filename.concat W.work_dir "results.json"

let write_results ~out ~seed ~reps blocks =
  W.mkdir_p (Filename.dirname out);
  Json.to_file out
    (Json.Obj [ ("provenance", provenance ~seed ~reps); ("workloads", Json.List blocks) ])

let report_problems name problems =
  List.iter (fun p -> Printf.eprintf "benchmark: %s: %s\n" name p) problems

let single ~spec ~bench_path ~out (o : options) w =
  let r = run_workload ~spec ~bench_path o w in
  write_results ~out ~seed:o.seed ~reps:o.reps [ r.block ];
  report_problems w.W.name r.problems;
  print_endline (result_line ~spec o r);
  exit (if r.problems = [] then 0 else 1)

(* A full pass: every workload in a fresh child process of this program, so
   no workload inherits another's heap; their result files are merged. *)
let full_pass ~bench_path ~out (o : options) =
  let parts =
    List.map
      (fun (w : W.t) ->
        let part = Filename.concat W.work_dir (w.W.name ^ ".part.json") in
        let args =
          [ Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int o.seed;
            "--trace"; "1"; "--out"; part; "--benchmark"; bench_path ]
          @ (match o.reps with Some r -> [ "--reps"; string_of_int r ] | None -> [])
          @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
          @ match o.spans with Some f -> [ "--spans"; f ^ "." ^ w.W.name ] | None -> []
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
            Unix.stdout Unix.stderr
        in
        let ok = match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false in
        if not ok then Printf.eprintf "benchmark: workload %s failed\n%!" w.W.name;
        let block =
          match Json.of_file part with
          | Ok j -> (
              Sys.remove part;
              match Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" j)) with
              | [ b ] -> Some b
              | _ -> None)
          | Error _ -> None
        in
        (ok, block))
      W.all
  in
  write_results ~out ~seed:o.seed ~reps:o.reps (List.filter_map snd parts);
  Printf.eprintf "benchmark: results written to %s\n" out;
  exit (if List.for_all fst parts then 0 else 1)

(* {2 Smoke} *)

(* Every workload at about 1/50 scale, one repetition, traced, in this
   process: fails on a missing, non-finite or degenerate metric, a negative
   self time or a failed output check. *)
let smoke ~spec ~bench_path =
  let o = { seed = 1; reps = Some 1; seconds = None; trace = true; spans = None; smoke = true } in
  let failures =
    List.concat_map
      (fun w ->
        let r = run_workload ~spec ~bench_path o w in
        report_problems w.W.name r.problems;
        Printf.printf "smoke %s: %d end-to-end and %d per-layer metrics, %s\n%!" w.W.name
          (List.length r.e2e) (List.length r.layers)
          (if r.problems = [] then "ok" else "FAILED");
        r.problems)
      W.all
  in
  if failures <> [] then exit 1

(* {2 compare} *)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [setup_s] changes below 2 ms are not regressions: simulator set-up takes
   well under a millisecond, where a relative bound only measures noise. *)
let setup_floor_s = 0.002

let stat k s = Option.value ~default:nan (Option.bind (Json.member k s) Json.to_num)

(* [(median in a, median in b, relative change, verdict)] for one metric. *)
let judge (m : metric) a b =
  let samples s =
    List.filter_map Json.to_num
      (Json.to_list (Option.value ~default:Json.Null (Json.member "samples" s)))
  in
  let va = stat "median" a and vb = stat "median" b in
  let spread s = (stat "q3" s -. stat "q1" s) /. stat "median" s in
  let lower = m.better = "lower" in
  let change = (vb -. va) /. va in
  let worse_by = if lower then change else -.change in
  let better x y = if lower then x < y else x > y in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better y x) (samples a)) (samples b)
  in
  let beyond =
    Float.abs (vb -. va) > if m.name = "setup_s" then setup_floor_s else 0.
  in
  let verdict =
    if not beyond then Unchanged
    else if Float.max (spread a) (spread b) > m.bound then
      if all_better then Improved else Unresolved
    else if worse_by > m.bound then Worse
    else if worse_by < -.m.bound then Improved
    else Unchanged
  in
  (va, vb, change, verdict)

let compare_files ~spec a_path b_path =
  let load p =
    match Json.of_file p with
    | Error e -> die "%s" e
    | Ok j ->
        let seed = Option.bind (Option.bind (Json.member "provenance" j) (Json.member "seed")) Json.to_num in
        ( seed,
          List.filter_map
            (fun b -> Option.map (fun n -> (n, b)) (Option.bind (Json.member "workload" b) Json.to_str))
            (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" j))) )
  in
  let seed_a, wa = load a_path and seed_b, wb = load b_path in
  let bad = ref false in
  List.iter
    (fun (name, a) ->
      match List.assoc_opt name wb with
      | None -> Printf.printf "%s: missing from %s\n" name b_path
      | Some b ->
          let e2e j = Option.value ~default:Json.Null (Json.member "end_to_end" j) in
          List.iter
            (fun m ->
              match (Json.member m.name (e2e a), Json.member m.name (e2e b)) with
              | Some sa, Some sb ->
                  let va, vb, change, v = judge m sa sb in
                  if v = Worse then bad := true;
                  Printf.printf "%-14s %-22s %12.6g -> %-12.6g %+7.2f%% (bound %g%%) %s\n"
                    name m.name va vb (100. *. change) (100. *. m.bound) (verdict_name v)
              | _ -> Printf.printf "%-14s %-22s missing\n" name m.name)
            spec.end_to_end;
          let unbounded j = Option.value ~default:Json.Null (Json.member "unbounded" j) in
          List.iter
            (fun (metric, sa) ->
              match Json.member metric (unbounded b) with
              | Some sb ->
                  let va = stat "median" sa and vb = stat "median" sb in
                  Printf.printf "%-14s %-22s %12.6g -> %-12.6g %+7.2f%% (no bound)\n" name
                    metric va vb
                    (100. *. (vb -. va) /. va)
              | None -> ())
            (match unbounded a with Json.Obj l -> l | _ -> []);
          let ratio j =
            let g k = Option.value ~default:0. (Option.bind (Json.member k j) Json.to_num) in
            if g "attempted" = 0. then 0. else g "failed" /. g "attempted"
          in
          if ratio b > ratio a then begin
            bad := true;
            Printf.printf "%-14s failed_ratio rose: %g -> %g\n" name (ratio a) (ratio b)
          end;
          let fps j = Option.value ~default:Json.Null (Json.member "fingerprints" j) in
          if seed_a = seed_b && fps a <> fps b then begin
            bad := true;
            Printf.printf "%-14s simulator outputs changed (fingerprints differ)\n" name
          end)
    wa;
  exit (if !bad then 1 else 0)

(* {2 Command line} *)

let () =
  let workload = ref None and seed = ref 1 and reps = ref None and seconds = ref None in
  let trace = ref None and out = ref None and spans = ref None and smoke_mode = ref false in
  let bench_path = ref "BENCHMARK.json" and anon = ref [] and setup_mode = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W run one workload");
      ("--seed", Arg.Set_int seed, "S workload seed (default 1)");
      ("--reps", Arg.Int (fun r -> reps := Some r), "R timed repetitions");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S time budget for the repetitions");
      ("--trace", Arg.Int (fun t -> trace := Some (t <> 0)), "0|1 report per-layer metrics (one workload)");
      ("--out", Arg.String (fun f -> out := Some f), "F results file");
      ("--spans", Arg.String (fun f -> spans := Some f), "F raw spans of the traced run, JSONL");
      ("--smoke", Arg.Set smoke_mode, " every workload at 1/50 scale, as a test");
      ("--benchmark", Arg.Set_string bench_path, "F BENCHMARK.json to read");
      ("--setup-sample", Arg.Set setup_mode, " print the wall time of one set-up of --workload");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := a :: !anon) usage with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let find name =
    match W.find name with Some w -> w | None -> die "unknown workload %s" name
  in
  if !setup_mode then begin
    let w = find (Option.value !workload ~default:"") in
    print_endline (Json.number_to_string (setup_wall w ~seed:!seed));
    exit 0
  end;
  let spec = load_spec !bench_path in
  match List.rev !anon with
  | [ "compare"; a; b ] -> compare_files ~spec a b
  | _ :: _ -> die "%s" usage
  | [] -> (
      if !smoke_mode then smoke ~spec ~bench_path:!bench_path
      else
        let out = Option.value !out ~default:default_out in
        let o =
          {
            seed = !seed;
            reps = !reps;
            seconds = !seconds;
            trace = Option.value !trace ~default:(!workload = None);
            spans = !spans;
            smoke = false;
          }
        in
        match !workload with
        | None -> full_pass ~bench_path:!bench_path ~out o
        | Some name -> single ~spec ~bench_path:!bench_path ~out o (find name))
