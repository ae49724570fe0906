open Bft_types

let log_src = Logs.Src.create "moonshot.harness" ~doc:"Experiment harness"

module Log = (val Logs.src_log log_src : Logs.LOG)

type fault_summary = {
  liveness : Bft_obs.Liveness.report;
  messages_during_heal : int;
}

type run_result = {
  metrics : Metrics.result;
  messages_sent : int;
  bytes_sent : int;
  events_processed : int;
  peak_pending : int;
  config : Config.t;
  fault_summary : fault_summary option;
  client_summary : Bft_mempool.Ingest.summary option;
}

(* Lifetime event counter, atomic so runs on worker domains count too. *)
let total_events = Atomic.make 0
let events_processed_total () = Atomic.get total_events

(* Lifetime allocation counter for the alloc-per-event probe: each run adds
   the bytes its domain allocated between node start-up and the end of the
   event loop (read exactly with {!Bft_obs.Alloc}, which is per-domain;
   [Gc.allocated_bytes] lags the minor heap on OCaml 5.1), so bench
   reports can divide by the event counter above. *)
let total_alloc = Atomic.make 0
let bytes_allocated_total () = Atomic.get total_alloc

let latency_model (cfg : Config.t) =
  match cfg.Config.latency with
  | Config.Wan -> Bft_workload.Regions.latency_model ()
  | Config.Uniform { base; jitter } -> Bft_sim.Latency.Uniform { base; jitter }

(* Metrics has a single quorum-commit observer slot: compose the liveness
   monitor, the trace emitter and the ingest replayer into it.  Installs
   nothing when all three are absent. *)
let observe_quorum_commits metrics ?monitor ?trace ?ingest () =
  match (trace, monitor, ingest) with
  | None, None, None -> ()
  | _ ->
      Metrics.set_on_quorum_commit metrics (fun ~node ~time block ->
          (match monitor with
          | Some mon ->
              Bft_obs.Liveness.note_quorum_commit mon ~time
                ~height:block.Block.height
                ~hash:(Hash.to_int block.Block.hash)
          | None -> ());
          (match trace with
          | Some sink ->
              Bft_obs.Trace.emit sink
                {
                  Bft_obs.Trace.time;
                  node;
                  kind =
                    Bft_obs.Trace.Quorum_commit
                      { view = block.Block.view; height = block.Block.height };
                }
          | None -> ());
          match ingest with
          | Some ing ->
              let drained =
                Bft_mempool.Ingest.on_quorum_commit ing
                  ~payload:block.Block.payload ~time
              in
              (match trace with
              | Some sink ->
                  let r = Bft_mempool.Ingest.batch_report ing ~count:drained in
                  Bft_obs.Trace.emit sink
                    {
                      Bft_obs.Trace.time;
                      node;
                      kind =
                        Bft_obs.Trace.Client_batch
                          {
                            view = block.Block.view;
                            height = block.Block.height;
                            count = r.Bft_mempool.Ingest.count;
                            pending = r.Bft_mempool.Ingest.pool_pending;
                            p50_ms = r.Bft_mempool.Ingest.cum_p50_ms;
                            p99_ms = r.Bft_mempool.Ingest.cum_p99_ms;
                          };
                    }
              | None -> ())
          | None -> ())

let run_protocol (type m) ?(on_commit = fun ~node:_ _ -> ()) ?trace
    ?on_client_command
    (module P : Bft_types.Protocol_intf.S with type msg = m)
    (cfg : Config.t) =
  Config.validate cfg;
  (* A disabled sink installs nothing: the untraced run is the benchmark
     run, instruction for instruction. *)
  let trace =
    match trace with
    | Some t when Bft_obs.Trace.enabled t -> Some t
    | Some _ | None -> None
  in
  let faults = Bft_faults.Fault_schedule.sorted cfg.Config.faults in
  let faulted = not (Bft_faults.Fault_schedule.is_empty faults) in
  let lg =
    if faulted && cfg.Config.logical_faults then
      Some (Bft_faults.Logical.of_schedule_exn ~n:cfg.Config.n faults)
    else None
  in
  let network =
    Bft_sim.Network.make
      ?bandwidth_bps:cfg.Config.bandwidth_bps
      ~gst:cfg.Config.gst_ms ~pre_gst_extra:cfg.Config.pre_gst_extra_ms
      ~duplicate_prob:cfg.Config.duplicate_prob
      ~latency:(latency_model cfg) ~delta:cfg.Config.delta_ms ()
  in
  (* Client-traffic ingestion: one shared coordinator per run.  The arrival
     stream and lane state machine are pure functions of the spec, and
     contents are derived by quorum-commit-order replay, so sharing one
     instance across all (honest) leaders models what every validator's
     local replayer would compute. *)
  let ingest =
    Option.map
      (fun spec ->
        Bft_mempool.Ingest.create ?on_command:on_client_command ~spec
          ~n:cfg.Config.n ~view_ms:cfg.Config.delta_ms ())
      cfg.Config.clients
  in
  let engine =
    let cpu_cost = if cfg.Config.model_cpu then Some P.cpu_cost else None in
    (* With ingestion on, batch contents travel client→validator on the
       dissemination path (Narwhal-style): a proposal's ordering cost is its
       header + batch reference, so shed the in-band payload bytes.  Sync
       responses keep theirs — catch-up really retransmits contents. *)
    let msg_size =
      match ingest with
      | None -> P.msg_size
      | Some _ ->
          fun m ->
            (match P.classify m with
            | `Proposal -> P.msg_size m - P.payload_bytes m
            | `Vote | `Timeout | `Other -> P.msg_size m)
    in
    Bft_sim.Engine.create ~n:cfg.Config.n ~network ~seed:cfg.Config.seed
      ~msg_size ?cpu_cost ()
  in
  let metrics = Metrics.create ~n:cfg.Config.n () in
  let now () = Bft_sim.Engine.now engine in
  (* The online monitor only exists for fault runs; an unfaulted run keeps
     the exact callback/instruction profile it had without fault support. *)
  let monitor =
    if faulted then
      Some
        (Bft_obs.Liveness.create ~n:cfg.Config.n ~delta:cfg.Config.delta_ms
           ~gst:cfg.Config.gst_ms)
    else None
  in
  let module H = Bft_net.Node_host.Make (P) in
  H.trace_deliveries trace engine;
  observe_quorum_commits metrics ?monitor ?trace ?ingest ();
  let policy =
    {
      Bft_net.Node_host.n = cfg.Config.n;
      delta = cfg.Config.delta_ms;
      leader_of =
        Bft_workload.Schedules.leader_of cfg.Config.schedule ~n:cfg.Config.n
          ~f':cfg.Config.f_actual;
      payload_bytes = cfg.Config.payload_bytes;
      ingest;
      trace;
      faults = lg;
    }
  in
  let silent id =
    Bft_workload.Schedules.is_byzantine ~n:cfg.Config.n ~f':cfg.Config.f_actual
      id
  in
  let behaviour_of id =
    if silent id then Some Byzantine.Silent
    else List.assoc_opt id cfg.Config.byzantine
  in
  (* Crash and recovery, whoever orders them: the wall-clock thunks below,
     or — for view-anchored faults — a node's host, whose fault step runs
     after each of its events.  A logical crash lands between the victim's
     events once its own view reaches the anchor; a logical recovery fires
     when the observer (node 0) passes the recovery anchor.  No wall-clock
     machinery runs then, so the committed chain is a pure function of the
     protocol and the schedule — identical on simulator and sockets
     ([moonshot crossval --scenario chaos]). *)
  let hosts = ref [||] in
  let crash node =
    let time = Bft_sim.Engine.now engine in
    Log.debug (fun m ->
        m "fault: crash node %d at %.0f (view %d)" node time
          (H.view !hosts.(node)));
    Bft_sim.Engine.crash engine node;
    Bft_obs.Liveness.note_crash (Option.get monitor) ~node ~time;
    H.emit !hosts.(node) Bft_obs.Trace.(Fault Crash)
  in
  let recover node =
    let time = Bft_sim.Engine.now engine in
    Log.debug (fun m -> m "fault: recover node %d at %.0f" node time);
    Bft_sim.Engine.recover engine node;
    Bft_obs.Liveness.note_recover (Option.get monitor) ~node ~time;
    (* Rebuild the node from its WAL; [start] resumes from the recorded
       view and the block synchronizer refills the store (the node catches
       up instead of re-voting). *)
    H.recover !hosts.(node)
  in
  (* After the last recovery the network is disruption-free modulo
     partition windows, whose view anchors pass within a few view changes:
     enforce the liveness bound from there, as the wall-clock path does from
     each heal time. *)
  let last_recovery =
    Option.bind lg (fun lg ->
        List.nth_opt (List.rev (Bft_faults.Logical.recoveries lg)) 0
        |> Option.map snd)
  in
  let on_verdict id (v : Bft_net.Node_host.verdict) =
    if v.crash then crash id;
    List.iter
      (fun node ->
        recover node;
        if last_recovery = Some node then
          let mon = Option.get monitor in
          let time = Bft_sim.Engine.now engine in
          let k_ms = Bft_obs.Liveness.bound mon in
          Bft_sim.Engine.schedule_at engine (time +. k_ms) (fun () ->
              Bft_obs.Liveness.check mon ~since:time ~now:(time +. k_ms)))
      v.recover
  in
  (* WALs exist only in fault runs; each participant gets one that outlives
     its incarnations, so a recovery restarts the node from its own durable
     state (and only from that — proving the double-vote-prevention story). *)
  hosts :=
    Array.init cfg.Config.n (fun id ->
        H.create policy ~id
          (Bft_net.Node_host.engine_io engine id)
          ?wal:(if faulted then Some (P.wal_create ()) else None)
          ~equivocate:(behaviour_of id = Some Byzantine.Equivocate)
          ~wrap:
            (match behaviour_of id with
            | Some Byzantine.Withhold_votes ->
                Env.with_outgoing_filter ~keep:(fun msg ->
                    P.classify msg <> `Vote)
            | Some (Byzantine.Delay_all delay) -> Env.with_outgoing_delay ~delay
            | Some (Byzantine.Silent | Byzantine.Equivocate) | None -> Fun.id)
          ~on_spawn:(fun _ handler ->
            Bft_sim.Engine.set_handler engine id handler)
          ~on_commit:(fun block ->
            (match monitor with
            | Some mon ->
                Bft_obs.Liveness.note_commit mon ~node:id
                  ~time:(Bft_sim.Engine.now engine)
                  ~height:block.Block.height
            | None -> ());
            Metrics.on_commit metrics ~node:id ~now block;
            on_commit ~node:id block)
          ~on_propose:(fun block ->
            Metrics.on_propose metrics ~now block)
          ~on_verdict:(on_verdict id));
  let hosts = !hosts in
  Array.iteri (fun id h -> if not (silent id) then H.spawn h) hosts;
  (* Interpret the fault schedule: crash/recover thunks, link-level window
     overlays, liveness checkpoints and healing-traffic accounting. *)
  let messages_during_heal = ref 0 in
  (if faulted then begin
     let module FS = Bft_faults.Fault_schedule in
     let mon = Option.get monitor in
     List.iter
       (fun id ->
         if behaviour_of id <> None then Bft_obs.Liveness.set_exempt mon id)
       (List.init cfg.Config.n (fun i -> i));
     match lg with
     | Some lg ->
         (* Sends are gated on the sender's current view (the engine's link
            filter runs at send time) — the sim-side mirror of the live
            transport's [fault_clock = Views]. *)
         Bft_sim.Engine.set_link_filter engine (fun ~src ~dst ->
             not
               (Bft_faults.Logical.cut lg ~src ~src_view:(H.view hosts.(src))
                  ~dst))
     | None ->
     (* Probabilistic loss draws come from a dedicated stream so the
        engine's own RNGs stay on the sequence an unfaulted run sees. *)
     Bft_sim.Engine.set_link_windows engine
       (Bft_faults.Overlay.compile ~n:cfg.Config.n faults)
       ~rng:(Bft_sim.Rng.create (cfg.Config.seed lxor 0x5eed_fa17));
     List.iter
       (fun (at, ev) ->
         match ev with
         | Bft_net.Fault_plane.Wall_crash node ->
             Bft_sim.Engine.schedule_at engine at (fun () -> crash node)
         | Bft_net.Fault_plane.Wall_recover node ->
             Bft_sim.Engine.schedule_at engine at (fun () -> recover node)
         | Bft_net.Fault_plane.Wall_edge fault ->
             Option.iter
               (fun sink ->
                 Bft_sim.Engine.schedule_at engine at (fun () ->
                     Bft_obs.Trace.emit sink
                       {
                         Bft_obs.Trace.time = at;
                         node = -1;
                         kind = Bft_obs.Trace.Fault fault;
                       }))
               trace)
       (Bft_net.Fault_plane.wall_events faults);
     (* One liveness checkpoint per surviving disruption-free point; the
        supersession semantics live in {!FS.checkpoints}, shared with the
        net-trace liveness replay. *)
     let k_ms = Bft_obs.Liveness.bound mon in
     let horizon = cfg.Config.duration_ms in
     let heals = FS.heal_times faults in
     List.iter
       (fun d ->
         Bft_sim.Engine.schedule_at engine (d +. k_ms) (fun () ->
             Bft_obs.Liveness.check mon ~since:d ~now:(d +. k_ms)))
       (FS.checkpoints ~gst:cfg.Config.gst_ms ~horizon ~bound:k_ms faults);
     (* Healing traffic: messages sent inside the (merged) [heal,
        heal + k * Delta] windows, from the engine's own counters. *)
     let rec merge = function
       | (a, b) :: (c, d) :: rest when c <= b ->
           merge ((a, Float.max b d) :: rest)
       | span :: rest -> span :: merge rest
       | [] -> []
     in
     let heal_windows =
       merge
         (List.map
            (fun d -> (d, Float.min (d +. k_ms) horizon))
            (List.sort_uniq Float.compare heals))
     in
     let window_start = ref 0 in
     List.iter
       (fun (a, b) ->
         Bft_sim.Engine.schedule_at engine a (fun () ->
             window_start :=
               (Bft_sim.Engine.stats engine).Bft_sim.Engine.messages_sent);
         Bft_sim.Engine.schedule_at engine b (fun () ->
             messages_during_heal :=
               !messages_during_heal
               + (Bft_sim.Engine.stats engine).Bft_sim.Engine.messages_sent
               - !window_start))
       heal_windows
   end);
  Log.debug (fun m -> m "starting run: %a" Config.pp cfg);
  let alloc0 = Bft_obs.Alloc.allocated_bytes () in
  Array.iter H.start hosts;
  (* A logical crash anchored at a view the node reaches during start-up
     must land before any message is delivered. *)
  Array.iter H.fault_step hosts;
  Bft_sim.Engine.run engine ~until:cfg.Config.duration_ms;
  let alloc = Bft_obs.Alloc.allocated_bytes () -. alloc0 in
  let stats = Bft_sim.Engine.stats engine in
  ignore
    (Atomic.fetch_and_add total_events stats.Bft_sim.Engine.events_processed
      : int);
  ignore (Atomic.fetch_and_add total_alloc (int_of_float alloc) : int);
  let result =
    {
      metrics = Metrics.finish metrics ~duration_ms:cfg.Config.duration_ms;
      messages_sent = stats.Bft_sim.Engine.messages_sent;
      bytes_sent = stats.Bft_sim.Engine.bytes_sent;
      events_processed = stats.Bft_sim.Engine.events_processed;
      peak_pending = stats.Bft_sim.Engine.peak_pending;
      config = cfg;
      fault_summary =
        Option.map
          (fun mon ->
            {
              liveness = Bft_obs.Liveness.report mon;
              messages_during_heal = !messages_during_heal;
            })
          monitor;
      client_summary = Option.map Bft_mempool.Ingest.summary ingest;
    }
  in
  Log.info (fun m ->
      m "run done: %a -> %d blocks, %.1f ms avg latency, %d msgs" Config.pp cfg
        result.metrics.Metrics.committed_blocks
        result.metrics.Metrics.avg_latency_ms result.messages_sent);
  result

let run ?on_commit ?trace ?on_client_command (cfg : Config.t) =
  let (Protocol_kind.Impl p) = Protocol_kind.impl cfg.Config.protocol in
  run_protocol ?on_commit ?trace ?on_client_command p cfg

let run_seeds cfg ~seeds =
  List.map (fun seed -> run { cfg with Config.seed }) seeds

type summary = {
  blocks_committed : float;
  avg_latency_ms : float;
  transfer_rate_bps : float;
  blocks_per_sec : float;
}

let summarize results =
  if results = [] then invalid_arg "Harness.summarize: no results";
  let mean f = Bft_stats.Descriptive.mean (List.map f results) in
  {
    blocks_committed =
      mean (fun r -> float_of_int r.metrics.Metrics.committed_blocks);
    avg_latency_ms = mean (fun r -> r.metrics.Metrics.avg_latency_ms);
    transfer_rate_bps = mean (fun r -> r.metrics.Metrics.transfer_rate_bps);
    blocks_per_sec = mean (fun r -> r.metrics.Metrics.blocks_per_sec);
  }
