(* Observability tests: trace determinism (same seed, same bytes), span
   well-formedness (commits close proposals), zero-cost disabled sinks, and
   the per-view breakdown's phase ordering. *)

open Bft_types
open Bft_runtime
module Trace = Bft_obs.Trace
module Breakdown = Bft_obs.Breakdown

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A small exact-hop network: a few dozen views in a fast run, with every
   phase boundary at a crisp multiple of the hop latency. *)
let cfg ?(protocol = Protocol_kind.Pipelined_moonshot) ?(seed = 1) () =
  {
    (Config.default protocol ~n:4) with
    Config.duration_ms = 300.;
    delta_ms = 50.;
    latency = Config.Uniform { base = 10.; jitter = 0. };
    bandwidth_bps = None;
    model_cpu = false;
    seed;
  }

let traced_run config =
  let trace = Trace.create () in
  let r = Harness.run ~trace config in
  (trace, r)

(* --- Determinism ------------------------------------------------------------------ *)

let test_same_seed_identical_jsonl () =
  let t1, _ = traced_run (cfg ()) in
  let t2, _ = traced_run (cfg ()) in
  check "trace is non-trivial" true (Trace.length t1 > 100);
  check_str "same seed, byte-identical JSONL" (Trace.to_jsonl t1)
    (Trace.to_jsonl t2)

let test_different_seed_differs () =
  (* Jitter makes the RNG matter; exact-hop runs are seed-independent. *)
  let with_jitter seed =
    { (cfg ~seed ()) with Config.latency = Config.Uniform { base = 10.; jitter = 5. } }
  in
  let t1, _ = traced_run (with_jitter 1) in
  let t2, _ = traced_run (with_jitter 2) in
  check "different seeds give different traces" true
    (Trace.to_jsonl t1 <> Trace.to_jsonl t2)

(* --- Span well-formedness ---------------------------------------------------------- *)

let test_commits_close_proposals () =
  List.iter
    (fun protocol ->
      let trace, _ = traced_run (cfg ~protocol ()) in
      let proposed = Hashtbl.create 64 in
      List.iter
        (fun (ev : Trace.event) ->
          match ev.Trace.kind with
          | Trace.Node_event (Probe.Proposal_sent { view; _ }) ->
              if not (Hashtbl.mem proposed view) then
                Hashtbl.add proposed view ev.Trace.time
          | Trace.Quorum_commit { view; _ } ->
              (match Hashtbl.find_opt proposed view with
              | None ->
                  Alcotest.failf "%s: view %d committed without a proposal"
                    (Protocol_kind.name protocol) view
              | Some t ->
                  check "commit is after its proposal" true
                    (ev.Trace.time >= t))
          | _ -> ())
        (Trace.events trace);
      check
        (Protocol_kind.name protocol ^ " commits something")
        true
        (List.exists
           (fun (ev : Trace.event) ->
             match ev.Trace.kind with Trace.Quorum_commit _ -> true | _ -> false)
           (Trace.events trace)))
    Protocol_kind.all

(* --- Disabled sink ------------------------------------------------------------------ *)

let test_disabled_sink_records_nothing () =
  let trace = Trace.disabled () in
  let r = Harness.run ~trace (cfg ()) in
  check_int "disabled sink stays empty" 0 (Trace.length trace);
  check "run still commits" true (r.Harness.metrics.Metrics.committed_blocks > 0)

(* Tracing observes every host path without perturbing it: an untraced,
   a disabled-sink and a traced run commit the same node-0 chain after the
   same number of engine events — plus, traced on the wall clock, one event
   per fault-window edge it records. *)
let perturbation_table =
  let long = { (cfg ()) with Config.duration_ms = 3000. } in
  let views = { Bft_mempool.Spec.default with clock = Bft_mempool.Spec.Views } in
  [
    ("tracing does not perturb", cfg ());
    ( "traced = untraced, wall faults",
      {
        long with
        Config.faults =
          Bft_faults.Fault_schedule.demo ~n:4 ~leader:1 ~crash_at:200.
            ~partition_at:400. ~heal_at:700. ~recover_at:900.;
      } );
    ( "traced = untraced, logical faults",
      {
        long with
        Config.faults = Bft_faults.Logical.random ~rng:(Bft_sim.Rng.create 7) ~n:4;
        logical_faults = true;
      } );
    ("traced = untraced, views clients", { (cfg ()) with Config.clients = Some views });
  ]

let test_tracing_does_not_perturb config () =
  let run trace =
    let chain = ref [] in
    let on_commit ~node b =
      if node = 0 then chain := (b.Block.height, b.Block.view, b.Block.hash) :: !chain
    in
    let r = Harness.run ?trace ~on_commit config in
    (!chain, r.Harness.events_processed)
  in
  let edges =
    if config.Config.logical_faults then 0
    else
      List.length
        (List.filter
           (function _, Bft_net.Fault_plane.Wall_edge _ -> true | _ -> false)
           (Bft_net.Fault_plane.wall_events config.Config.faults))
  in
  let chain0, events0 = run None in
  check "node 0 committed" true (chain0 <> []);
  let sink = Trace.create () in
  List.iter
    (fun (what, trace, extra) ->
      let chain, events = run (Some trace) in
      check (what ^ ": node 0 chain") true (chain = chain0);
      check_int (what ^ ": events") (events0 + extra) events)
    [ ("disabled sink", Trace.disabled (), 0); ("traced", sink, edges) ];
  (* The fault rows really restart a node through the host. *)
  check "recovery traced"
    (Bft_faults.Fault_schedule.crash_count config.Config.faults > 0)
    (List.mem Trace.(Fault Recover) (List.map (fun e -> e.Trace.kind) (Trace.events sink)))

(* --- Sink basics -------------------------------------------------------------------- *)

let test_sink_emit_and_clear () =
  let t = Trace.create () in
  check "fresh sink enabled" true (Trace.enabled t);
  Trace.emit t
    { Trace.time = 1.5; node = 0; kind = Trace.Committed { view = 1; height = 1 } };
  check_int "one event" 1 (Trace.length t);
  check_str "json shape" {|{"t":1.5,"node":0,"ev":"commit","view":1,"height":1}|}
    (Trace.event_to_json (List.hd (Trace.events t)));
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t);
  check "still enabled after clear" true (Trace.enabled t)

let test_jsonl_one_line_per_event () =
  let trace, _ = traced_run (cfg ()) in
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl trace)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one JSON line per event" (Trace.length trace) (List.length lines);
  List.iter
    (fun l ->
      check "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* --- Breakdown ---------------------------------------------------------------------- *)

let test_breakdown_phase_ordering () =
  List.iter
    (fun protocol ->
      let trace, _ = traced_run (cfg ~protocol ()) in
      let rows = Breakdown.rows (Trace.events trace) in
      check (Protocol_kind.name protocol ^ " has rows") true (rows <> []);
      (* No entered <= propose check: Moonshot's optimistic proposals are
         broadcast before any node enters the view. *)
      let ( <=? ) a b =
        match (a, b) with Some x, Some y -> x <= y | _ -> true
      in
      List.iter
        (fun (r : Breakdown.view_row) ->
          check "propose <= vote" true (r.Breakdown.propose_ms <=? r.Breakdown.first_vote_ms);
          check "vote <= cert" true (r.Breakdown.first_vote_ms <=? r.Breakdown.cert_ms);
          check "cert <= commit" true (r.Breakdown.cert_ms <=? r.Breakdown.commit_ms))
        rows;
      (* Rows are sorted and views distinct. *)
      let views = List.map (fun (r : Breakdown.view_row) -> r.Breakdown.view) rows in
      check "views sorted distinct" true
        (views = List.sort_uniq compare views))
    Protocol_kind.all

let test_breakdown_exact_hop_phases () =
  (* On an exact 10 ms network, Pipelined Moonshot's steady state is the
     paper's Figure 2: 10 ms block period, 30 ms proposal-to-commit. *)
  let trace, _ = traced_run (cfg ()) in
  let rows = Breakdown.rows (Trace.events trace) in
  let p = Breakdown.phases rows in
  (match p.Breakdown.block_period with
  | None -> Alcotest.fail "no block-period samples"
  | Some d ->
      check "block period = one hop" true (abs_float (d.Breakdown.p50 -. 10.) < 0.001));
  (match p.Breakdown.propose_to_commit with
  | None -> Alcotest.fail "no commit-latency samples"
  | Some d ->
      check "commit latency = three hops" true
        (abs_float (d.Breakdown.p50 -. 30.) < 0.001));
  (* Tables render without raising and cover every row. *)
  let _ = Breakdown.table rows in
  let _ = Breakdown.phase_table p in
  ()

let test_breakdown_counts_messages () =
  let trace, _ = traced_run (cfg ()) in
  let rows = Breakdown.rows (Trace.events trace) in
  check "every full view saw messages" true
    (List.for_all
       (fun (r : Breakdown.view_row) ->
         r.Breakdown.commit_ms = None || (r.Breakdown.msgs > 0 && r.Breakdown.bytes > 0))
       rows)

let () =
  Alcotest.run "obs"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed same bytes" `Quick
            test_same_seed_identical_jsonl;
          Alcotest.test_case "seeds differ" `Quick test_different_seed_differs;
        ] );
      ( "spans",
        [
          Alcotest.test_case "commits close proposals" `Quick
            test_commits_close_proposals;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "disabled sink empty" `Quick
            test_disabled_sink_records_nothing;
        ]
        @ List.map
            (fun (name, config) ->
              Alcotest.test_case name `Quick
                (test_tracing_does_not_perturb config))
            perturbation_table );
      ( "sink",
        [
          Alcotest.test_case "emit and clear" `Quick test_sink_emit_and_clear;
          Alcotest.test_case "jsonl lines" `Quick test_jsonl_one_line_per_event;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "phase ordering" `Quick test_breakdown_phase_ordering;
          Alcotest.test_case "exact-hop phases" `Quick
            test_breakdown_exact_hop_phases;
          Alcotest.test_case "message counts" `Quick test_breakdown_counts_messages;
        ] );
    ]
