(* Command-line front end: run any of the five protocols on a configurable
   simulated network — or on a real localhost TCP cluster — and print the
   paper's metrics, trace a run's per-view latency, or cross-validate the
   two substrates.

     dune exec bin/moonshot_cli.exe -- run --protocol CM -n 50 --payload 18000
     dune exec bin/moonshot_cli.exe -- run -p J --schedule WJ --faults 13 -n 40
     dune exec bin/moonshot_cli.exe -- run-net -p CM -n 4 --blocks 50
     dune exec bin/moonshot_cli.exe -- trace -p PM --timeline
     dune exec bin/moonshot_cli.exe -- crossval -p PM --blocks 10
     dune exec bin/moonshot_cli.exe -- crossval -p SM --scenario chaos
     dune exec bin/moonshot_cli.exe -- table1
*)

open Cmdliner
open Bft_runtime

let protocol_conv =
  let parse s =
    match Protocol_kind.of_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown protocol %S (expected SM, PM, CM, J, HS or long names)"
               s))
  in
  let print ppf p = Format.pp_print_string ppf (Protocol_kind.name p) in
  Arg.conv (parse, print)

let schedule_conv =
  let parse s =
    match Bft_workload.Schedules.of_name s with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown schedule %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Bft_workload.Schedules.name s) in
  Arg.conv (parse, print)

let protocol ~default =
  Arg.(
    value
    & opt protocol_conv default
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:
          "Protocol to run: SM (simple-moonshot), PM (pipelined-moonshot), \
           CM (commit-moonshot), J (jolteon) or HS (hotstuff).")

let nodes ~default =
  Arg.(
    value & opt int default
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Network size.")

let payload ~default =
  Arg.(
    value & opt int default
    & info [ "payload" ] ~docv:"BYTES" ~doc:"Block payload size in bytes.")

let duration ~default =
  Arg.(
    value & opt float default
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated run length.")

let delta ?(doc = "Message-delay bound Delta, ms.") ~default () =
  Arg.(value & opt float default & info [ "delta" ] ~docv:"MS" ~doc)

let faults =
  Arg.(
    value & opt int 0
    & info [ "f"; "faults" ] ~docv:"F"
        ~doc:"Number of silent Byzantine nodes (at most (n-1)/3).")

let schedule =
  Arg.(
    value
    & opt schedule_conv Bft_workload.Schedules.Round_robin
    & info [ "schedule" ] ~docv:"SCHED"
        ~doc:"Leader schedule: round-robin, B, WM or WJ.")

let seed ~default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let gst =
  Arg.(
    value & opt float 0.
    & info [ "gst" ] ~docv:"SECONDS"
        ~doc:"Global stabilization time; before it, messages may be delayed \
              adversarially.")

let uniform_latency =
  Arg.(
    value
    & opt (some (pair ~sep:',' float float)) None
    & info [ "uniform-latency" ] ~docv:"BASE,JITTER"
        ~doc:
          "Replace the AWS WAN latency matrix with a uniform one-way latency \
           of BASE + U[0,JITTER) ms.")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Log per-run details to stderr.")

(* Client-traffic spec shared by [run] and [run-net]: [--clients N] turns
   the mode on, the rest refine the default spec. *)
let clients_spec =
  let clients =
    Arg.(
      value
      & opt (some int) None
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Enable client-traffic mode: N open-loop clients submit \
             commands into a sharded mempool and leaders cut blocks from \
             lane batches instead of the parametric $(b,--payload).  The \
             run then reports backpressure counters and, under the wall \
             ingest clock, client-perceived end-to-end latency (submit to \
             quorum commit).")
  in
  let rate =
    Arg.(
      value & opt float 5000.
      & info [ "client-rate" ] ~docv:"PER_S"
          ~doc:
            "Aggregate client submission rate, commands per second (used \
             by the $(b,wall) ingest clock).")
  in
  let lanes =
    Arg.(
      value & opt int 8
      & info [ "lanes" ] ~docv:"K" ~doc:"Number of independent mempool lanes.")
  in
  let lane_cap =
    Arg.(
      value & opt int 4096
      & info [ "lane-capacity" ] ~docv:"C"
          ~doc:"Commands a lane holds before overflow spills to its backlog.")
  in
  let max_batch =
    Arg.(
      value & opt int 512
      & info [ "max-batch" ] ~docv:"B"
          ~doc:"Commands a single block may draw from the mempool.")
  in
  let per_view =
    Arg.(
      value & opt int 64
      & info [ "per-view" ] ~docv:"C"
          ~doc:
            "Arrivals per view under the $(b,views) ingest clock (ignored \
             by $(b,wall)).")
  in
  let clock =
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("wall", Bft_mempool.Spec.Wall); ("views", Bft_mempool.Spec.Views);
             ])
          Bft_mempool.Spec.Wall
      & info [ "ingest-clock" ] ~docv:"CLOCK"
          ~doc:
            "How arrival watermarks are read: $(b,wall) paces arrivals on \
             the substrate clock at $(b,--client-rate) (the latency \
             benchmarking mode); $(b,views) admits $(b,--per-view) \
             commands per view number, making the cut a pure function of \
             the view so simulator and socket runs commit identical \
             chains (the cross-validation mode).")
  in
  let make clients rate lanes lane_cap max_batch per_view clock =
    Option.map
      (fun n ->
        {
          Bft_mempool.Spec.default with
          Bft_mempool.Spec.clients = n;
          rate_per_s = rate;
          lanes;
          lane_capacity = lane_cap;
          max_batch;
          per_view;
          clock;
        })
      clients
  in
  Term.(
    const make $ clients $ rate $ lanes $ lane_cap $ max_batch $ per_view
    $ clock)

let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end

(* The paper's metrics, one block for both substrates (the cli-smoke rule
   fails if [run] and [run-net] print different labels here). *)
let print_metrics (m : Metrics.result) =
  Format.printf "blocks committed: %d (%.2f blocks/s)@."
    m.Metrics.committed_blocks m.Metrics.blocks_per_sec;
  Format.printf "avg latency     : %.1f ms@." m.Metrics.avg_latency_ms;
  if m.Metrics.latencies_ms <> [] then
    Format.printf "latency p50/p95 : %.1f / %.1f ms@."
      (Bft_stats.Descriptive.percentile 50. m.Metrics.latencies_ms)
      (Bft_stats.Descriptive.percentile 95. m.Metrics.latencies_ms);
  Format.printf "transfer rate   : %.3f MB/s@."
    (m.Metrics.transfer_rate_bps /. 1e6);
  (* The half-period queueing model of lib/app/client: needs two
     committed blocks, so very short runs report n/a, not a crash. *)
  let timeline =
    List.map
      (fun rec_ -> (rec_.Metrics.created_ms, rec_.Metrics.quorum_commit_ms))
      m.Metrics.records
  in
  match Bft_app.Client.analyze timeline with
  | stats -> Format.printf "client model    : %a@." Bft_app.Client.pp stats
  | exception Invalid_argument _ ->
      Format.printf "client model    : n/a (fewer than two committed blocks)@."

let run_cmd =
  let run verbose protocol n payload duration delta faults schedule seed gst
      uniform_latency clients =
    setup_logs verbose;
    let latency, bandwidth =
      match uniform_latency with
      | Some (base, jitter) -> (Config.Uniform { base; jitter }, None)
      | None -> (Config.Wan, Some Bft_workload.Regions.bandwidth_bps)
    in
    let cfg =
      {
        (Config.default protocol ~n) with
        Config.payload_bytes = payload;
        duration_ms = duration *. 1000.;
        delta_ms = delta;
        f_actual = faults;
        schedule;
        seed;
        gst_ms = gst *. 1000.;
        pre_gst_extra_ms = (if gst > 0. then 4. *. delta else 0.);
        latency;
        bandwidth_bps = bandwidth;
        clients;
      }
    in
    let r = Harness.run cfg in
    Format.printf "config          : %a@." Config.pp cfg;
    print_metrics r.Harness.metrics;
    Format.printf "messages        : %d (%.1f MB)@." r.Harness.messages_sent
      (float_of_int r.Harness.bytes_sent /. 1e6);
    (match r.Harness.client_summary with
    | None -> ()
    | Some s ->
        Format.printf "client traffic  :@.%a@." Bft_mempool.Ingest.pp_summary s);
    Format.printf "safety          : OK@."
  in
  let term =
    Term.(
      const run $ verbose
      $ protocol ~default:Protocol_kind.Commit_moonshot
      $ nodes ~default:10 $ payload ~default:0 $ duration ~default:30.
      $ delta ~default:500. () $ faults $ schedule $ seed ~default:1 $ gst
      $ uniform_latency $ clients_spec)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs one protocol on the discrete-event network simulator and \
         prints throughput, commit latency percentiles and traffic — the \
         measurement loop behind the paper's Section VI experiments.  The \
         default network is the five-region AWS WAN of Table II; \
         $(b,--uniform-latency) swaps in a uniform link model for \
         ablations.";
      `S Manpage.s_examples;
      `Pre
        "  # Commit-Moonshot, 50 validators, 18 kB payloads on the WAN\n\
        \  moonshot run --protocol CM -n 50 --payload 18000\n\n\
        \  # Jolteon under the worst-case leader schedule with 13 failures\n\
        \  moonshot run -p J --schedule WJ --faults 13 -n 40\n\n\
        \  # A fast local ablation with uniform 10 ms links\n\
        \  moonshot run -p PM -n 10 --uniform-latency 10,5 --duration 5\n\n\
        \  # A million clients at 20k commands/s through the mempool\n\
        \  moonshot run -p CM -n 10 --clients 1000000 --client-rate 20000";
    ]
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol on a simulated network" ~man)
    term

let fault_sched_conv =
  let parse s =
    match Bft_faults.Fault_schedule.of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  let print ppf f =
    Format.pp_print_string ppf (Bft_faults.Fault_schedule.to_string f)
  in
  Arg.conv (parse, print)

(* A liveness report as [run-net] and [crossval] print it: one line per
   recovery, then the quorum-commit gap, each under [label] padded to
   [width]. *)
let print_liveness ~width label (report : Bft_obs.Liveness.report) =
  List.iter
    (fun (rec_ : Bft_obs.Liveness.recovery) ->
      Format.printf "%-*s: node %d down %.0f ms, %s@." width label rec_.node
        (rec_.recovered_at_ms -. rec_.crashed_at_ms)
        (match rec_.caught_up_at_ms with
        | Some t ->
            Printf.sprintf "caught up to height %d in %.0f ms"
              rec_.target_height
              (t -. rec_.recovered_at_ms)
        | None -> "NEVER CAUGHT UP"))
    report.recoveries;
  Format.printf
    "%-*s: max quorum-commit gap %.0f ms (bound %.0f ms after last \
     disruption)%s@."
    width label report.max_quorum_gap_ms report.bound_ms
    (match report.min_slack_ms with
    | Some s -> Printf.sprintf ", min check slack %.0f ms" s
    | None -> "")

let run_net_cmd =
  let mode_conv =
    Arg.enum
      [ ("threads", Bft_net.Tcp.Threads); ("procs", Bft_net.Tcp.Processes) ]
  in
  let clock_conv =
    Arg.enum
      [
        ("wall", Bft_net.Fault_plane.Wall_ms);
        ("views", Bft_net.Fault_plane.Views);
      ]
  in
  let blocks =
    Arg.(
      value & opt int 50
      & info [ "blocks" ] ~docv:"K"
          ~doc:"Stop once every node has committed K blocks.")
  in
  let delta =
    delta ~default:1000.
      ~doc:
        "Message-delay bound Delta handed to the nodes, ms.  Keep it far \
         above localhost round-trip time so no view change ever fires on \
         the happy path."
      ()
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Bft_net.Tcp.Threads
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Execution mode: $(b,threads) runs every validator as a thread \
             in this process; $(b,procs) forks one OS process per \
             validator.")
  in
  let port =
    Arg.(
      value & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Base TCP port; node $(i,i) listens on PORT+$(i,i).  Default: \
             kernel-assigned ephemeral ports.")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record every node's structured events and write the merged, \
             time-sorted JSONL trace to FILE (same format as the \
             simulator's tracer).")
  in
  let timeout =
    Arg.(
      value & opt float 60.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Abort the cluster if the target is not reached in time.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After the run, assert cluster sanity: target reached, dense \
             per-node commit heights (after a crash: every node's top \
             height reached the target), no two nodes commit different \
             hashes at one height.  Exit non-zero on violation.")
  in
  let faults =
    Arg.(
      value
      & opt fault_sched_conv Bft_faults.Fault_schedule.empty
      & info [ "faults" ] ~docv:"SCHEDULE"
          ~doc:
            "Fault schedule to inject, in the simulator's schedule syntax \
             (e.g. $(b,crash@150:2;recover@700:2) or \
             $(b,loss@100-400:1>2:0.5)).  Crashes kill the node for real \
             — SIGKILL in $(b,procs) mode — and recovery replays its WAL.")
  in
  let fault_clock =
    Arg.(
      value
      & opt clock_conv Bft_net.Fault_plane.Wall_ms
      & info [ "fault-clock" ] ~docv:"CLOCK"
          ~doc:
            "How schedule times are read: $(b,wall) as milliseconds since \
             cluster start, $(b,views) as view numbers (the logical clock \
             used by $(b,crossval --scenario chaos)).")
  in
  let fault_seed =
    Arg.(
      value & opt int 17
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed for probabilistic loss windows.")
  in
  let link_delay =
    Arg.(
      value & opt float 0.
      & info [ "link-delay" ] ~docv:"MS"
          ~doc:
            "Pace every link by delaying each outbound frame this many \
             milliseconds (in addition to any delay windows in the \
             schedule).")
  in
  let wal_dir =
    Arg.(
      value & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for per-node write-ahead logs (used by crash \
             recovery).  Default: a fresh temporary directory.")
  in
  let run verbose protocol n blocks payload delta mode port trace_file timeout
      check faults fault_clock fault_seed link_delay wal_dir clients =
    setup_logs verbose;
    let module FS = Bft_faults.Fault_schedule in
    let cfg =
      {
        (Net_harness.config protocol ~n ~blocks) with
        Bft_net.Tcp.payload_bytes = payload;
        delta_ms = delta;
        mode;
        base_port = port;
        trace = trace_file <> None;
        timeout_ms = timeout *. 1000.;
        faults;
        fault_clock;
        fault_seed;
        link_delay_ms = link_delay;
        wal_dir;
        clients;
      }
    in
    let r = Net_harness.run protocol cfg in
    let open Bft_net.Tcp in
    Format.printf "protocol        : %a (%s mode, n=%d)@." Protocol_kind.pp
      protocol
      (match mode with Threads -> "threads" | Processes -> "process")
      n;
    Format.printf "target          : %d blocks per node -> %s in %.0f ms@."
      blocks
      (if r.reached_target then "reached" else "NOT reached")
      r.wall_ms;
    (match r.outcome with
    | Completed -> ()
    | Timed_out -> Format.printf "outcome         : TIMED OUT@.");
    Array.iter
      (fun nr ->
        Format.printf
          "node %d          : %d commits, %d msgs out (%.1f kB), %d decode \
           errors%s@."
          nr.id (List.length nr.commits) nr.messages_sent
          (float_of_int nr.bytes_sent /. 1024.)
          nr.decode_errors
          (if nr.restarts > 0 || nr.reconnects > 0 then
             Printf.sprintf ", %d restarts, %d reconnects" nr.restarts
               nr.reconnects
           else "");
        let per_peer label counts =
          if Array.exists (fun c -> c > 0) counts then begin
            Format.printf "                  %s by peer:" label;
            Array.iteri
              (fun peer c -> if c > 0 then Format.printf " %d<-%d" c peer)
              counts;
            Format.printf "@."
          end
        in
        per_peer "malformed" nr.malformed_by_peer;
        per_peer "dropped" nr.dropped_by_peer)
      r.nodes;
    if r.fault_events <> [] then begin
      Format.printf "fault timeline  :@.";
      List.iter
        (fun fe ->
          let kind =
            match fe.fe_kind with
            | Bft_obs.Trace.Crash -> "crash"
            | Recover -> "recover"
            | Partition_start -> "partition start"
            | Partition_heal -> "partition heal"
            | Loss_start -> "loss start"
            | Loss_end -> "loss end"
            | Delay_start -> "delay start"
            | Delay_end -> "delay end"
          in
          if fe.fe_node >= 0 then
            Format.printf "  %8.1f ms  %s node %d@." fe.fe_time_ms kind
              fe.fe_node
          else Format.printf "  %8.1f ms  %s@." fe.fe_time_ms kind)
        r.fault_events
    end;
    let a =
      try Net_harness.account cfg r
      with Bft_obs.Liveness.Violation msg ->
        Format.printf "liveness        : VIOLATION (%s)@." msg;
        if check then exit 1;
        Net_harness.account { cfg with faults = FS.empty } r
    in
    Option.iter (print_liveness ~width:16 "liveness") a.Net_harness.liveness;
    print_metrics a.Net_harness.metrics;
    Option.iter
      (Format.printf "client traffic  :@.%a@." Bft_mempool.Ingest.pp_summary)
      a.Net_harness.client_summary;
    (match trace_file with
    | None -> ()
    | Some path ->
        let lines = a.Net_harness.merged_trace in
        let oc = open_out path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
        Format.printf "trace           : %d events -> %s@." (List.length lines)
          path);
    if check then begin
      match Net_harness.check r ~target:blocks with
      | Ok () -> Format.printf "check           : OK@."
      | Error reason ->
          Format.printf "check           : FAILED (%s)@." reason;
          exit 1
    end
  in
  let term =
    Term.(
      const run $ verbose
      $ protocol ~default:Protocol_kind.Commit_moonshot
      $ nodes ~default:4 $ blocks $ payload ~default:0 $ delta $ mode $ port $ trace_file $ timeout $ check $ faults
      $ fault_clock $ fault_seed $ link_delay $ wal_dir $ clients_spec)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Launches an n-validator cluster of the selected protocol over \
         real TCP sockets on localhost and runs it until every node has \
         committed $(b,--blocks) blocks.  The node state machines are the \
         same modules the simulator drives; only the transport differs: \
         messages travel as length-prefixed wire frames (see \
         $(i,docs/WIRE.md)) over a full mesh of TCP connections, and \
         timers run on the wall clock.";
      `P
        "With $(b,--mode) $(b,procs) each validator is a forked OS process \
         and results return to the coordinator over pipes, so the run \
         exercises the codecs across address spaces.";
      `S Manpage.s_examples;
      `Pre
        "  # 4 validators in one process, 50 blocks, sanity-checked\n\
        \  moonshot run-net -p CM -n 4 --blocks 50 --check\n\n\
        \  # One OS process per validator, fixed ports, JSONL trace\n\
        \  moonshot run-net -p J --mode procs --port 7000 --trace net.jsonl\n\n\
        \  # 2 kB payloads over the sockets\n\
        \  moonshot run-net -p PM --payload 2048 --blocks 100\n\n\
        \  # Kill node 2 for real (SIGKILL) at 150 ms, re-spawn at 700 ms\n\
        \  moonshot run-net -p CM --mode procs --blocks 40 \\\\\n\
        \      --faults 'crash@150:2;recover@700:2' --delta 300 --check";
    ]
  in
  Cmd.v
    (Cmd.info "run-net" ~doc:"Run one protocol over real TCP sockets" ~man)
    term

let crossval_cmd =
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [ ("fault-free", `Fault_free); ("chaos", `Chaos); ("clients", `Clients) ])
          `Fault_free
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "What every substrate replays: $(b,fault-free) (the happy path, \
             with $(b,--payload)); $(b,chaos) (a random view-anchored fault \
             schedule drawn from $(b,--seed): one crash/recover cycle plus \
             one partition window); $(b,clients) (a seeded stream of 100k \
             clients, 32 commands per view, through the mempool).")
  in
  let blocks =
    Arg.(
      value & opt int 10
      & info [ "blocks" ] ~docv:"K"
          ~doc:
            "Number of commits to compare (under $(b,chaos), at least the \
             schedule's last anchor plus 8).")
  in
  let run verbose protocol n blocks payload seed scenario =
    setup_logs verbose;
    let scenario =
      match scenario with
      | `Fault_free -> Net_harness.Fault_free { payload_bytes = payload }
      | `Chaos | `Clients when payload <> 0 ->
          prerr_endline "crossval: --payload applies to --scenario fault-free only";
          exit 2
      | `Chaos -> Net_harness.Chaos { seed }
      | `Clients -> Net_harness.Clients Net_harness.views_clients
    in
    let cv = Net_harness.crossval ~n ~protocol ~blocks scenario in
    let name (leg : Net_harness.leg) = Net_harness.substrate_name leg.substrate in
    Format.printf "protocol : %a (n=%d, %d blocks)@." Protocol_kind.pp protocol
      n cv.blocks;
    (match scenario with
    | Net_harness.Chaos _ ->
        Format.printf "schedule : %s (times are view numbers)@."
          (Bft_faults.Fault_schedule.to_string cv.schedule)
    | Net_harness.Clients spec ->
        Format.printf "spec     : %a@." Bft_mempool.Spec.pp spec
    | Net_harness.Fault_free _ -> ());
    List.iter
      (fun (leg : Net_harness.leg) ->
        Option.iter (print_liveness ~width:9 (name leg)) leg.liveness;
        (* Crossval runs the views clock, so each leg prints its counts
           (a socket leg's over the compared prefix) and no latency. *)
        Option.iter
          (Format.printf "%-8s :@.%a@." (name leg)
             Bft_mempool.Ingest.pp_summary)
          leg.client_summary)
      cv.legs;
    (* One row per height: the shared commit, or every leg's on mismatch. *)
    let rec rows = function
      | [] | [] :: _ -> []
      | chains -> List.map List.hd chains :: rows (List.map List.tl chains)
    in
    List.iter
      (fun (row : Net_harness.commit_id list) ->
        let c = List.hd row in
        if List.for_all (( = ) c) row then
          Format.printf "height %2d: view %d hash %016Lx@." c.height c.view
            c.hash
        else
          Format.printf "height %2d: %s <- MISMATCH@." c.height
            (String.concat " | "
               (List.map2
                  (fun leg (c : Net_harness.commit_id) ->
                    Printf.sprintf "%s view %d hash %016Lx" (name leg) c.view
                      c.hash)
                  cv.legs row)))
      (rows (List.map (fun (leg : Net_harness.leg) -> leg.chain) cv.legs));
    let names = String.concat ", " (List.map name cv.legs) in
    if cv.agree then
      Format.printf "crossval : OK — %s agree on all %d commits@." names
        cv.blocks
    else begin
      Format.printf "crossval : FAILED — %s commit different chains@." names;
      exit 1
    end
  in
  let term =
    Term.(
      const run $ verbose
      $ protocol ~default:Protocol_kind.Commit_moonshot
      $ nodes ~default:4 $ blocks $ payload ~default:0 $ seed ~default:7
      $ scenario)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays one scenario on every execution substrate — the \
         discrete-event simulator, a threads-mode localhost TCP cluster \
         and, when the scenario crashes a node, a fork-per-validator TCP \
         cluster — and asserts that node 0 commits the identical sequence \
         of (height, view, hash) triples on all of them.";
      `P
        "$(b,fault-free): with a generous Delta no timeout ever fires, so \
         the committed chain is a pure function of the protocol; any \
         divergence is a bug in a codec or a transport, not timing.";
      `P
        "$(b,chaos): every fault trigger is a function of protocol views \
         rather than wall time, so all three runs must commit the same \
         chain; any divergence is a bug in fault injection, WAL recovery, \
         Sync catch-up or a codec.  The crash is a real kill: in process \
         mode the victim dies by SIGKILL and is re-spawned, rebuilding its \
         state from its write-ahead log and catching up over the wire.";
      `P
        "$(b,clients): blocks carry only batch references (cursor, \
         watermark, count) and contents are derived by commit-order \
         replay under the $(b,views) ingest clock, so chain agreement \
         means every command landed in the same block on every substrate.";
      `S Manpage.s_examples;
      `Pre
        "  # Default: commit-moonshot, 4 nodes, fault-free, first 10 commits\n\
        \  moonshot crossval\n\n\
        \  # All five protocols under a view-anchored fault schedule\n\
        \  for p in SM PM CM J HS; do moonshot crossval -p \\$p --scenario \
         chaos --seed 11; done\n\n\
        \  # The same client stream on both substrates\n\
        \  moonshot crossval -p J --scenario clients";
    ]
  in
  Cmd.v
    (Cmd.info "crossval"
       ~doc:"Cross-validate the simulator against the TCP substrates" ~man)
    term

(* {2 trace} — a simulated run with structured tracing on, rendered as a
   per-view latency breakdown (where each view's milliseconds went:
   proposal -> vote -> certificate -> quorum commit), a phase percentile
   summary, a raw delivery timeline or a JSONL trace file.  The default
   network delivers every message in exactly --hop ms, so the Figure 2
   story is directly visible: optimistic proposals for view v+1 overlap
   votes for view v, block period = 1 hop, commit latency = 3 hops. *)

let trace_cmd =
  let hop =
    Arg.(
      value & opt float 10.
      & info [ "hop" ] ~docv:"MS"
          ~doc:
            "Exact one-way latency of every message (uniform, zero jitter). \
             Ignored with $(b,--wan).")
  in
  let wan =
    Arg.(
      value & flag
      & info [ "wan" ]
          ~doc:
            "Use the paper's AWS WAN latency matrix and bandwidth model \
             instead of a uniform $(b,--hop) network.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Print every trace event as a timeline line instead of the \
             per-view tables.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Write the full trace as JSON Lines to $(docv) ($(b,-) for \
             stdout).  Deterministic: same config and seed, same bytes.")
  in
  let run protocol n seed duration delta payload hop wan timeline jsonl =
    let latency, bandwidth, model_cpu =
      if wan then (Config.Wan, Some Bft_workload.Regions.bandwidth_bps, true)
      else (Config.Uniform { base = hop; jitter = 0. }, None, false)
    in
    let cfg =
      {
        (Config.default protocol ~n) with
        Config.payload_bytes = payload;
        duration_ms = duration *. 1000.;
        delta_ms = delta;
        seed;
        latency;
        bandwidth_bps = bandwidth;
        model_cpu;
      }
    in
    let trace = Bft_obs.Trace.create () in
    let r = Harness.run ~trace cfg in
    let m = r.Harness.metrics in
    (match jsonl with
    | None -> ()
    | Some "-" -> Bft_obs.Trace.output stdout trace
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Bft_obs.Trace.output oc trace);
        Format.printf "wrote %d events to %s@." (Bft_obs.Trace.length trace)
          file);
    if jsonl <> Some "-" then begin
      Format.printf "config : %a@." Config.pp cfg;
      (if not wan then
         Format.printf
           "network: every message exactly %.0f ms (block period = 1 hop, \
            commit = propose + 3 hops)@."
           hop);
      Format.printf
        "result : %d blocks committed, %.1f ms avg latency, %d trace \
         events@.@."
        m.Metrics.committed_blocks m.Metrics.avg_latency_ms
        (Bft_obs.Trace.length trace);
      if timeline then
        List.iter
          (fun ev -> Format.printf "%a@." Bft_obs.Trace.pp_event ev)
          (Bft_obs.Trace.events trace)
      else begin
        let rows = Bft_obs.Breakdown.rows (Bft_obs.Trace.events trace) in
        Format.printf "Per-view breakdown (times in simulated ms):@.";
        Bft_stats.Table.print Format.std_formatter
          (Bft_obs.Breakdown.table rows);
        Format.printf "@.Phase summary:@.";
        Bft_stats.Table.print Format.std_formatter
          (Bft_obs.Breakdown.phase_table (Bft_obs.Breakdown.phases rows))
      end
    end
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the chosen protocol with structured tracing enabled and \
         renders where each view's time went: first proposal, first vote, \
         first certificate assembly, quorum commit, plus per-view message \
         and byte counts.  The default network delivers every message in \
         exactly one hop, which makes the paper's Figure 2 story directly \
         observable: Moonshot's optimistic proposals give a block period \
         of one hop and a commit latency of three.";
      `S Manpage.s_examples;
      `Pre
        "  # Pipelined Moonshot, 4 nodes, 1 s, 10 ms hops\n\
        \  moonshot trace\n\n\
        \  moonshot trace -p jolteon -n 10 --duration 5\n\
        \  moonshot trace -p PM --timeline\n\
        \  moonshot trace -p CM --jsonl trace.jsonl";
    ]
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace a simulated run and break down per-view latency" ~man)
    Term.(
      const run
      $ protocol ~default:Protocol_kind.Pipelined_moonshot
      $ nodes ~default:4 $ seed ~default:1 $ duration ~default:1.
      $ delta ~default:50. () $ payload ~default:0 $ hop $ wan $ timeline
      $ jsonl)

let table1_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Prints the theoretical comparison of block period, commit latency \
         and view-change cost across the protocol family (paper Table I).";
      `S Manpage.s_examples;
      `Pre "  moonshot table1";
    ]
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Print the theoretical comparison (paper Table I)" ~man)
    Term.(const (fun () -> Moonshot.Theory.print Format.std_formatter) $ const ())

let table2_cmd =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Prints the five-region AWS inter-region latency matrix the WAN \
         simulations use (paper Table II).";
      `S Manpage.s_examples;
      `Pre "  moonshot table2";
    ]
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Print the AWS latency matrix (paper Table II)"
       ~man)
    Term.(
      const (fun () -> Bft_workload.Regions.print_table Format.std_formatter)
      $ const ())

(* {2 explore} — the model checker's sampling modes from the command line:
   swarm walks over one world, or coverage-guided search over fault
   schedules.  Exhaustive checking stays in the bench driver ([bench mc]);
   this subcommand is for the modes one points at a world interactively. *)

let explore_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("swarm", `Swarm); ("search", `Search) ]) `Swarm
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,swarm): sample maximal interleavings with \
             sleep-set-respecting random walks and report coverage, \
             violations and certified livelocks.  $(b,search): mutate \
             fault schedules, scoring each candidate by a swarm under its \
             schedule, until a counterexample turns up or the budget runs \
             out.")
  in
  let view_bound =
    Arg.(
      value & opt int 3
      & info [ "view-bound" ] ~docv:"V"
          ~doc:"Stop a walk once some node's view exceeds V.")
  in
  let depth =
    Arg.(
      value & opt int 96
      & info [ "depth" ] ~docv:"STEPS" ~doc:"Step cap per walk.")
  in
  let timer_budget =
    Arg.(
      value & opt int 1
      & info [ "timer-budget" ] ~docv:"T"
          ~doc:"Timer firings per node per fault era.")
  in
  let reorder_window =
    Arg.(
      value & opt int 1
      & info [ "reorder-window" ] ~docv:"W"
          ~doc:"Per-destination cross-channel overtaking bound.")
  in
  let budget =
    Arg.(
      value & opt int 256
      & info [ "budget" ] ~docv:"K"
          ~doc:
            "Exploration budget: walks in swarm mode; approximate schedule \
             evaluations in search mode (12 per mutation round).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker processes; reports are byte-identical for every N.")
  in
  let sym =
    Arg.(
      value & flag
      & info [ "sym" ]
          ~doc:
            "Canonicalize state digests under the validator-symmetry \
             group (sound; pays off once n >= view-bound + 2).")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SCHED"
          ~doc:
            "Fault schedule for swarm mode, in the fault-DSL syntax (e.g. \
             'partition@100-500:0,1/2,3').  Ignored by search mode, which \
             supplies its own candidates.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Replay the first counterexample (violation or certified \
             livelock) and write its deterministic trace as JSONL.")
  in
  let run mode proto n view_bound depth timer_budget reorder_window seed
      budget jobs sym faults out =
    let die fmt =
      Format.kasprintf
        (fun s ->
          prerr_endline s;
          exit 2)
        fmt
    in
    let compile_faults s =
      match Bft_faults.Fault_schedule.of_string s with
      | Error e -> die "bad fault schedule: %s" e
      | Ok sched -> (
          match Bft_mc.Mc_schedule.compile ~n sched with
          | Error e -> die "bad fault schedule: %s" e
          | Ok steps -> steps)
    in
    let cfg ~faults =
      Bft_mc.Checker.config ~n ~view_bound ~timer_budget ~reorder_window
        ~max_depth:(max 128 (depth + 8))
        ~symmetry:sym ~faults ()
    in
    let write_trace cfg path file =
      let tr = Bft_mc.Checker.replay proto cfg path in
      let oc = open_out file in
      output_string oc (Bft_obs.Trace.to_jsonl tr);
      close_out oc;
      Format.printf "counterexample trace written to %s@." file
    in
    match mode with
    | `Swarm ->
        let steps =
          match faults with None -> [] | Some s -> compile_faults s
        in
        let cfg = cfg ~faults:steps in
        let sw =
          Bft_mc.Checker.swarm ~jobs proto ~walks:budget ~depth ~seed cfg
        in
        Format.printf "%a@." Bft_mc.Mc_report.pp_swarm sw;
        let cx_path =
          match sw.Bft_mc.Mc_report.sw_violations with
          | v :: _ -> Some v.Bft_mc.Mc_report.path
          | [] -> sw.Bft_mc.Mc_report.sw_livelock_witness
        in
        (match (out, cx_path) with
        | Some file, Some path -> write_trace cfg path file
        | Some _, None ->
            Format.printf "no counterexample found; nothing written@."
        | None, _ -> ());
        if cx_path <> None then exit 1
    | `Search ->
        let xcfg =
          Bft_mc.Checker.search_config ~seed
            ~rounds:(max 1 (budget / 12))
            ~depth ()
        in
        let se =
          Bft_mc.Checker.schedule_search ~jobs proto xcfg (cfg ~faults:[])
        in
        Format.printf "%a@." Bft_mc.Mc_report.pp_search se;
        (match se.Bft_mc.Mc_report.se_counterexample with
        | Some (sched_text, cx) ->
            (match out with
            | Some file ->
                let steps = compile_faults sched_text in
                let path =
                  match cx with
                  | Bft_mc.Mc_report.Cx_livelock p -> p
                  | Bft_mc.Mc_report.Cx_violation v ->
                      v.Bft_mc.Mc_report.path
                in
                write_trace (cfg ~faults:steps) path file
            | None -> ());
            exit 1
        | None -> ())
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Scalable exploration over the same bounded model the exhaustive \
         checker uses: every result — a violation path, a certified \
         livelock, a searched-up fault schedule — replays \
         deterministically, and every report is byte-identical for any \
         $(b,--jobs) value.  Exits 1 when a counterexample is found.";
      `S Manpage.s_examples;
      `Pre
        "  moonshot explore -p SM -n 4 --budget 512\n\
        \  moonshot explore -p SM -n 4 --faults 'partition@100-500:0,1/2,3'\n\
        \  moonshot explore --mode search -p SM -n 4 --budget 100 --out cx.jsonl";
    ]
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Swarm walks and coverage-guided schedule search (model checker)"
       ~man)
    Term.(
      const run $ mode
      $ protocol ~default:Protocol_kind.Commit_moonshot
      $ nodes ~default:4 $ view_bound $ depth $ timer_budget $ reorder_window
      $ seed ~default:1 $ budget $ jobs $ sym
      $ faults_arg $ out)

let () =
  Bft_parallel.Parallel.tune_gc ();
  let man =
    [
      `S Manpage.s_description;
      `P
        "Evaluation harness for Moonshot chain-based rotating-leader BFT \
         SMR (DSN 2024) and its baselines.  The same protocol node \
         implementations run on two execution substrates: a deterministic \
         discrete-event simulator ($(b,run)) and a live localhost TCP \
         cluster ($(b,run-net)); $(b,trace) explains where a simulated \
         run's milliseconds went, and $(b,crossval) proves both substrates \
         commit identical chains.";
    ]
  in
  let info =
    Cmd.info "moonshot" ~version:"1.0.0"
      ~doc:
        "Moonshot chain-based rotating-leader BFT SMR (DSN 2024) -- \
         simulated and live-network evaluation harness"
      ~man
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            run_net_cmd;
            crossval_cmd;
            trace_cmd;
            explore_cmd;
            table1_cmd;
            table2_cmd;
          ]))
