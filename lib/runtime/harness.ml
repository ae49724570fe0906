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
  config : Config.t;
  fault_summary : fault_summary option;
  client_summary : Bft_mempool.Ingest.summary option;
}

(* Lifetime event counter, atomic so runs on worker domains count too. *)
let total_events = Atomic.make 0
let events_processed_total () = Atomic.get total_events

(* Lifetime allocation counter for the alloc-per-event probe: each run adds
   the bytes its domain allocated between node start-up and the end of the
   event loop (measured with [Gc.allocated_bytes], which is per-domain), so
   bench reports can divide by the event counter above. *)
let total_alloc = Atomic.make 0
let bytes_allocated_total () = Atomic.get total_alloc

let latency_model (cfg : Config.t) =
  match cfg.Config.latency with
  | Config.Wan -> Bft_workload.Regions.latency_model ()
  | Config.Uniform { base; jitter } -> Bft_sim.Latency.Uniform { base; jitter }

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
  let logical = faulted && cfg.Config.logical_faults in
  let lg =
    if logical then
      Some (Bft_faults.Logical.of_schedule_exn ~n:cfg.Config.n faults)
    else None
  in
  let network =
    Bft_sim.Network.make
      ?bandwidth_bps:cfg.Config.bandwidth_bps
      ~gst:cfg.Config.gst_ms ~pre_gst_extra:cfg.Config.pre_gst_extra_ms
      ~duplicate_prob:cfg.Config.duplicate_prob
      ~drop_prob:cfg.Config.drop_prob
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
  (* The online monitor only exists for fault runs; an unfaulted run keeps
     the exact callback/instruction profile it had without fault support. *)
  let monitor =
    if faulted then
      Some
        (Bft_obs.Liveness.create ~n:cfg.Config.n ~delta:cfg.Config.delta_ms
           ~gst:cfg.Config.gst_ms ())
    else None
  in
  (match trace with
  | None -> ()
  | Some sink ->
      Bft_sim.Engine.set_delivery_tap engine (fun ~time ~src ~dst msg ->
          Bft_obs.Trace.emit sink
            {
              Bft_obs.Trace.time;
              node = dst;
              kind =
                Bft_obs.Trace.Delivered
                  {
                    src;
                    cls = P.classify msg;
                    view = P.view_of msg;
                    bytes = P.msg_size msg;
                  };
            }));
  (* Metrics has a single quorum-commit observer slot: compose the trace
     emitter, the liveness monitor and the ingest replayer into it. *)
  (match (trace, monitor, ingest) with
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
          | None -> ()));
  let validators = Validator_set.make cfg.Config.n in
  let leader_of =
    Bft_workload.Schedules.leader_of cfg.Config.schedule ~n:cfg.Config.n
      ~f':cfg.Config.f_actual
  in
  (* Logical-clock fault machinery: the current incarnation of every node
     (for view reads) and a forward reference to the between-events hook
     the faulted block installs below.  Both are inert unless [logical]:
     the hook stays a no-op and handlers are installed unwrapped. *)
  let node_refs : P.node option array = Array.make cfg.Config.n None in
  let after_event_hook = ref (fun (_ : int) -> ()) in
  let install id node =
    node_refs.(id) <- Some node;
    if logical then
      Bft_sim.Engine.set_handler engine id (fun ~src msg ->
          P.handle node ~src msg;
          !after_event_hook id)
    else Bft_sim.Engine.set_handler engine id (P.handle node)
  in
  let env_of id =
    {
      Env.id;
      validators;
      delta = cfg.Config.delta_ms;
      now = (fun () -> Bft_sim.Engine.now engine);
      send = (fun dst msg -> Bft_sim.Engine.send engine ~src:id ~dst msg);
      multicast = (fun msg -> Bft_sim.Engine.multicast engine ~src:id msg);
      set_timer =
        (fun delay f ->
          let f =
            if logical then (fun () ->
              f ();
              !after_event_hook id)
            else f
          in
          Bft_sim.Engine.set_timer ~owner:id engine delay f);
      leader_of;
      make_payload =
        (fun ~view ~parent ->
          match ingest with
          | Some ing ->
              Bft_mempool.Ingest.cut ing ~view ~parent
                ~now:(Bft_sim.Engine.now engine)
          | None -> Payload.make ~id:view ~size_bytes:cfg.Config.payload_bytes);
      on_commit =
        (fun block ->
          (match trace with
          | None -> ()
          | Some sink ->
              Bft_obs.Trace.emit sink
                {
                  Bft_obs.Trace.time = Bft_sim.Engine.now engine;
                  node = id;
                  kind =
                    Bft_obs.Trace.Committed
                      { view = block.Block.view; height = block.Block.height };
                });
          (match monitor with
          | Some mon ->
              Bft_obs.Liveness.note_commit mon ~node:id
                ~time:(Bft_sim.Engine.now engine)
                ~height:block.Block.height
          | None -> ());
          Metrics.on_commit metrics ~node:id
            ~time:(Bft_sim.Engine.now engine)
            block;
          on_commit ~node:id block);
      on_propose =
        (fun block ->
          Metrics.on_propose metrics ~time:(Bft_sim.Engine.now engine) block);
      probe =
        (match trace with
        | None -> None
        | Some sink ->
            Some
              (fun ev ->
                Bft_obs.Trace.emit sink
                  {
                    Bft_obs.Trace.time = Bft_sim.Engine.now engine;
                    node = id;
                    kind = Bft_obs.Trace.Node_event ev;
                  }));
    }
  in
  let silent id =
    Bft_workload.Schedules.is_byzantine ~n:cfg.Config.n ~f':cfg.Config.f_actual
      id
  in
  let behaviour_of id =
    if silent id then Some Byzantine.Silent
    else if List.mem id cfg.Config.equivocators then Some Byzantine.Equivocate
    else List.assoc_opt id cfg.Config.byzantine
  in
  (* WALs exist only in fault runs; each participant gets one that outlives
     its incarnations, so a recovery restarts the node from its own durable
     state (and only from that — proving the double-vote-prevention story). *)
  let wals =
    if faulted then Array.init cfg.Config.n (fun _ -> P.wal_create ())
    else [||]
  in
  let wal_of id = if faulted then Some wals.(id) else None in
  let nodes =
    List.filter_map
      (fun id ->
        let make ?(equivocate = false) env =
          let node = P.create ~equivocate ?wal:(wal_of id) env in
          install id node;
          Some node
        in
        match behaviour_of id with
        | Some Byzantine.Silent -> None
        | Some Byzantine.Equivocate -> make ~equivocate:true (env_of id)
        | Some Byzantine.Withhold_votes ->
            make
              (Env.with_outgoing_filter
                 ~keep:(fun msg -> P.classify msg <> `Vote)
                 (env_of id))
        | Some (Byzantine.Delay_all delay) ->
            make (Env.with_outgoing_delay ~delay (env_of id))
        | None -> make (env_of id))
      (List.init cfg.Config.n (fun i -> i))
  in
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
     let emit_fault ~time ~node fault =
       match trace with
       | Some sink ->
           Bft_obs.Trace.emit sink
             { Bft_obs.Trace.time; node; kind = Bft_obs.Trace.Fault fault }
       | None -> ()
     in
     match lg with
     | Some lg ->
         (* View-anchored interpretation — the sim-side mirror of the live
            transport's [fault_clock = Views].  Sends are gated on the
            sender's current view (the engine's link filter runs at send
            time), a crash lands between the victim's events once its own
            view reaches the anchor, and a recovery fires when the
            observer (node 0) passes the recovery anchor.  No wall-clock
            machinery runs, so the committed chain is a pure function of
            the protocol and the schedule — identical on simulator and
            sockets ([moonshot crossval --scenario chaos]). *)
         let view_of id =
           match node_refs.(id) with
           | Some nd -> P.current_view nd
           | None -> 0
         in
         Bft_sim.Engine.set_link_filter engine (fun ~src ~dst ~now:_ ->
             not
               (Bft_faults.Logical.cut lg ~src ~src_view:(view_of src) ~dst));
         let crashed = Array.make cfg.Config.n false in
         let recoveries = Bft_faults.Logical.recoveries lg in
         let next_order = ref 0 in
         let k_ms = Bft_obs.Liveness.bound mon in
         let rec do_recover node =
           let time = Bft_sim.Engine.now engine in
           Log.debug (fun m ->
               m "fault: logical recover node %d at %.0f" node time);
           Bft_sim.Engine.recover engine node;
           Bft_obs.Liveness.note_recover mon ~node ~time;
           emit_fault ~time ~node Bft_obs.Trace.Recover;
           let fresh = P.create ?wal:(wal_of node) (env_of node) in
           install node fresh;
           P.start fresh;
           (* After the last recovery the network is disruption-free
              modulo partition windows, whose view anchors pass within a
              few view changes: enforce the liveness bound from here, as
              the wall-clock path does from each heal time. *)
           if !next_order = List.length recoveries then
             Bft_sim.Engine.schedule_at engine (time +. k_ms) (fun () ->
                 Bft_obs.Liveness.check mon ~since:time ~now:(time +. k_ms))
         and after_event id =
           (match Bft_faults.Logical.crash_anchor lg id with
           | Some v when (not crashed.(id)) && view_of id >= v ->
               let time = Bft_sim.Engine.now engine in
               Log.debug (fun m ->
                   m "fault: logical crash node %d at %.0f (view %d)" id
                     time (view_of id));
               crashed.(id) <- true;
               Bft_sim.Engine.crash engine id;
               Bft_obs.Liveness.note_crash mon ~node:id ~time;
               emit_fault ~time ~node:id Bft_obs.Trace.Crash
           | _ -> ());
           if id = Bft_faults.Logical.observer lg then
             let ov = view_of id in
             let rec fire () =
               match List.nth_opt recoveries !next_order with
               | Some (v, node) when v <= ov ->
                   incr next_order;
                   do_recover node;
                   fire ()
               | _ -> ()
             in
             fire ()
         in
         after_event_hook := after_event
     | None ->
     let overlay = Bft_faults.Overlay.compile ~n:cfg.Config.n faults in
     if Bft_faults.Overlay.has_link_effects overlay then begin
       (* Probabilistic loss draws come from a dedicated stream so the
          engine's own RNGs stay on the sequence an unfaulted run sees. *)
       let fault_rng = Bft_sim.Rng.create (cfg.Config.seed lxor 0x5eed_fa17) in
       Bft_sim.Engine.set_link_filter engine (fun ~src ~dst ~now ->
           (not (Bft_faults.Overlay.cut overlay ~src ~dst ~now))
           &&
           let p = Bft_faults.Overlay.loss_prob overlay ~now in
           p <= 0. || Bft_sim.Rng.float fault_rng 1. >= p);
       Bft_sim.Engine.set_link_delay engine (fun ~src:_ ~dst:_ ~now ->
           Bft_faults.Overlay.extra_delay overlay ~now)
     end;
     let window_edges from_ until start_fault end_fault =
       if Option.is_some trace then begin
         Bft_sim.Engine.schedule_at engine from_ (fun () ->
             emit_fault ~time:from_ ~node:(-1) start_fault);
         Bft_sim.Engine.schedule_at engine until (fun () ->
             emit_fault ~time:until ~node:(-1) end_fault)
       end
     in
     List.iter
       (fun ev ->
         match ev with
         | FS.Crash { node; at } ->
             Bft_sim.Engine.schedule_at engine at (fun () ->
                 Log.debug (fun m -> m "fault: crash node %d at %.0f" node at);
                 Bft_sim.Engine.crash engine node;
                 Bft_obs.Liveness.note_crash mon ~node ~time:at;
                 emit_fault ~time:at ~node Bft_obs.Trace.Crash)
         | FS.Recover { node; at } ->
             Bft_sim.Engine.schedule_at engine at (fun () ->
                 Log.debug (fun m ->
                     m "fault: recover node %d at %.0f" node at);
                 Bft_sim.Engine.recover engine node;
                 Bft_obs.Liveness.note_recover mon ~node ~time:at;
                 emit_fault ~time:at ~node Bft_obs.Trace.Recover;
                 (* Rebuild the node from its WAL; [start] resumes from the
                    recorded view and the block synchronizer refills the
                    store (the node catches up instead of re-voting). *)
                 let fresh = P.create ?wal:(wal_of node) (env_of node) in
                 Bft_sim.Engine.set_handler engine node (P.handle fresh);
                 P.start fresh)
         | FS.Partition { from_; until; _ } ->
             window_edges from_ until Bft_obs.Trace.Partition_start
               Bft_obs.Trace.Partition_heal
         | FS.Link_loss { from_; until; _ } ->
             window_edges from_ until Bft_obs.Trace.Loss_start
               Bft_obs.Trace.Loss_end
         | FS.Delay_spike { from_; until; _ } ->
             window_edges from_ until Bft_obs.Trace.Delay_start
               Bft_obs.Trace.Delay_end)
       faults;
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
  let alloc0 = Gc.allocated_bytes () in
  List.iter P.start nodes;
  (* A logical crash anchored at a view the node reaches during start-up
     must land before any message is delivered. *)
  if logical then
    Array.iteri
      (fun id -> function Some _ -> !after_event_hook id | None -> ())
      node_refs;
  Bft_sim.Engine.run engine ~until:cfg.Config.duration_ms;
  let alloc = Gc.allocated_bytes () -. alloc0 in
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
