let quorum ~n = Metrics.latency_quorum ~n

let config kind ~n ~blocks =
  {
    Bft_net.Tcp.n;
    delta_ms = 1000.;
    payload_bytes = 0;
    target_blocks = blocks;
    timeout_ms = 60_000.;
    mode = Bft_net.Tcp.Threads;
    base_port = None;
    leader_of =
      Bft_workload.Schedules.leader_of Bft_workload.Schedules.Round_robin ~n
        ~f':0;
    trace = false;
    protocol_name = Protocol_kind.name kind;
    faults = Bft_faults.Fault_schedule.empty;
    fault_clock = Bft_net.Fault_plane.Wall_ms;
    fault_seed = 17;
    link_delay_ms = 0.;
    wal_dir = None;
    clients = None;
  }

let run kind cfg =
  let (Protocol_kind.Impl p) = Protocol_kind.impl kind in
  Bft_net.Tcp.run p cfg

type accounting = {
  metrics : Metrics.result;
  liveness : Bft_obs.Liveness.report option;
  client_summary : Bft_mempool.Ingest.summary option;
  merged_trace : string list;
}

(* The accounting pass: the run's records, replayed in time order into one
   collector that carries the simulator's quorum-commit observer. *)
let pass ?delta ?clients ?(trace = false) (result : Bft_net.Tcp.result) =
  let open Bft_net.Tcp in
  let module L = Bft_obs.Liveness in
  let n = Array.length result.nodes in
  let metrics = Metrics.create ~n () in
  (* The monitor's GST is the last disruption as it actually happened on
     the wall clock: everything after it is the window the liveness bound
     speaks about. *)
  let gst =
    List.fold_left (fun a fe -> Float.max a fe.fe_time_ms) 0.
      result.fault_events
  in
  let monitor = Option.map (fun delta -> L.create ~n ~delta ~gst) delta in
  let ingest =
    Option.map
      (fun (spec, view_ms) -> Bft_mempool.Ingest.create ~spec ~n ~view_ms ())
      clients
  in
  let sink = if trace then Some (Bft_obs.Trace.create ()) else None in
  Harness.observe_quorum_commits metrics ?monitor ?trace:sink ?ingest ();
  replay result metrics
    ~fault:(fun fe ->
      Option.iter
        (fun sink ->
          Bft_obs.Trace.emit sink
            {
              time = fe.fe_time_ms;
              node = fe.fe_node;
              kind = Bft_obs.Trace.Fault fe.fe_kind;
            })
        sink;
      Option.iter
        (fun mon ->
          match fe.fe_kind with
          | Bft_obs.Trace.Crash ->
              L.note_crash mon ~node:fe.fe_node ~time:fe.fe_time_ms
          | Recover -> L.note_recover mon ~node:fe.fe_node ~time:fe.fe_time_ms
          | _ -> ())
        monitor)
    ~commit:(fun ~node c ->
      Option.iter
        (fun mon -> L.note_commit mon ~node ~time:c.c_time_ms ~height:c.c_height)
        monitor);
  (* Enforce the bound once, from the last disruption, provided the run
     actually covered that window. *)
  let liveness =
    Option.map
      (fun mon ->
        let bound = L.bound mon in
        if result.wall_ms >= gst +. bound then
          L.check mon ~since:gst ~now:(gst +. bound);
        L.report mon)
      monitor
  in
  let merged_trace =
    match sink with
    | None -> []
    | Some sink ->
        List.concat_map (fun nr -> nr.trace_events) (Array.to_list result.nodes)
        @ Bft_obs.Trace.events sink
        |> List.stable_sort (fun (a : Bft_obs.Trace.event) b ->
               match Float.compare a.time b.time with
               | 0 -> Int.compare a.node b.node
               | c -> c)
        |> List.map Bft_obs.Trace.event_to_json
  in
  {
    metrics = Metrics.finish metrics ~duration_ms:result.wall_ms;
    liveness;
    client_summary = Option.map Bft_mempool.Ingest.summary ingest;
    merged_trace;
  }

let account (cfg : Bft_net.Tcp.config) result =
  pass
    ?delta:
      (if Bft_faults.Fault_schedule.is_empty cfg.faults then None
       else Some cfg.delta_ms)
    ?clients:(Option.map (fun spec -> (spec, cfg.delta_ms)) cfg.clients)
    ~trace:cfg.trace result

let crashed (result : Bft_net.Tcp.result) =
  List.exists
    (fun fe -> fe.Bft_net.Tcp.fe_kind = Bft_obs.Trace.Crash)
    result.Bft_net.Tcp.fault_events
  || Array.exists (fun nr -> nr.Bft_net.Tcp.restarts > 0) result.nodes

let check (result : Bft_net.Tcp.result) ~target =
  let open Bft_net.Tcp in
  if not result.reached_target then
    Error
      (Printf.sprintf "cluster did not reach %d blocks within the timeout"
         target)
  else
    (* Without crashes every node's commit log is dense from height 1.  A
       recovered node's is not (pre-crash commits may die with the
       incarnation, catch-up re-commits others), so after a crash only
       each node's top height is held to the target. *)
    let dense = not (crashed result) in
    let progress nr =
      if dense then
        let k = List.length nr.commits in
        if k < target then
          Some
            (Printf.sprintf "node %d committed only %d/%d blocks" nr.id k
               target)
        else
          List.find_mapi
            (fun i c ->
              if c.c_height <> i + 1 then
                Some
                  (Printf.sprintf "node %d: commit %d has height %d, expected %d"
                     nr.id i c.c_height (i + 1))
              else None)
            nr.commits
      else
        let top = List.fold_left (fun a c -> max a c.c_height) 0 nr.commits in
        if top < target then
          Some
            (Printf.sprintf "node %d topped out at height %d/%d" nr.id top
               target)
        else None
    in
    match List.find_map progress (Array.to_list result.nodes) with
    | Some p -> Error p
    | None -> (
        (* Agreement: the accounting pass's collector raises on two
           different blocks committed at one height. *)
        match pass result with
        | _ -> Ok ()
        | exception Bft_chain.Commit_log.Safety_violation e -> Error e)

let net_liveness result ~delta = Option.get (pass ~delta result).liveness

let client_stats result ~spec ~view_ms =
  Option.get (pass ~clients:(spec, view_ms) result).client_summary

type commit_id = { height : int; view : int; hash : int64 }

type scenario =
  | Fault_free of { payload_bytes : int }
  | Chaos of { seed : int }
  | Clients of Bft_mempool.Spec.t

let views_clients =
  {
    Bft_mempool.Spec.default with
    Bft_mempool.Spec.clients = 100_000;
    clock = Bft_mempool.Spec.Views;
    per_view = 32;
  }

type substrate = Sim | Net of Bft_net.Tcp.mode

let substrate_name = function
  | Sim -> "sim"
  | Net Bft_net.Tcp.Threads -> "threads"
  | Net Bft_net.Tcp.Processes -> "procs"

type leg = {
  substrate : substrate;
  chain : commit_id list;
  liveness : Bft_obs.Liveness.report option;
  client_summary : Bft_mempool.Ingest.summary option;
}

type crossval = {
  schedule : Bft_faults.Fault_schedule.t;
  blocks : int;
  legs : leg list;
  agree : bool;
}

let crossval ?(n = 4) ~protocol ~blocks scenario =
  let module FS = Bft_faults.Fault_schedule in
  (match scenario with
  | Clients spec when spec.Bft_mempool.Spec.clock <> Bft_mempool.Spec.Views ->
      invalid_arg
        "Net_harness.crossval: the client spec must use the Views ingest \
         clock (Wall-clock watermarks are substrate-dependent)"
  | _ -> ());
  (* Under chaos, run well past the last anchor so the recovered node's
     catch-up and the healed partition both sit inside the compared
     prefix. *)
  let schedule, blocks =
    match scenario with
    | Chaos { seed } ->
        let module L = Bft_faults.Logical in
        let schedule = L.random ~rng:(Bft_sim.Rng.create seed) ~n in
        let last = L.last_anchor (L.of_schedule_exn ~n schedule) in
        (schedule, max blocks (last + 8))
    | Fault_free _ | Clients _ -> (FS.empty, blocks)
  in
  let prefix substrate chain =
    let chain = List.filteri (fun i _ -> i < blocks) chain in
    if List.length chain < blocks then
      failwith
        (Printf.sprintf "crossval: %s committed only %d/%d blocks"
           (substrate_name substrate) (List.length chain) blocks);
    chain
  in
  (* Simulator leg: the happy-path local config (view-clock faults under
     chaos), long enough for [blocks] commits at node 0 with room to
     spare. *)
  let sim_cfg =
    let base = Config.local protocol ~n in
    let horizon a b = a +. (float_of_int blocks *. b) in
    match scenario with
    | Fault_free { payload_bytes } ->
        { base with Config.payload_bytes; duration_ms = horizon 5_000. 200. }
    | Clients spec ->
        {
          base with
          Config.clients = Some spec;
          duration_ms = horizon 5_000. 200.;
        }
    | Chaos _ ->
        {
          base with
          Config.faults = schedule;
          logical_faults = true;
          duration_ms = horizon 10_000. 300.;
        }
  in
  let sim_acc = ref [] in
  let sim_res =
    Harness.run
      ~on_commit:(fun ~node b ->
        if node = 0 then
          sim_acc :=
            {
              height = b.Bft_types.Block.height;
              view = b.Bft_types.Block.view;
              hash = Bft_types.Hash.to_int64 b.Bft_types.Block.hash;
            }
            :: !sim_acc)
      sim_cfg
  in
  let sim =
    {
      substrate = Sim;
      chain = prefix Sim (List.rev !sim_acc);
      liveness = None;
      client_summary = sim_res.Harness.client_summary;
    }
  in
  (* Socket legs: same n, round-robin schedule, payloads or client stream
     and fault schedule.  The fault-free delta is large enough that
     localhost never times out; under chaos, views with a dead or
     partitioned leader stall for delta, so it stays well above a paced
     view (~3 hops) but far below the fault-free default, and the link
     delay keeps view duration well above restart-and-redial time so a
     recovering incarnation never misses its leader slot. *)
  let net_leg mode =
    let base = { (config protocol ~n ~blocks) with Bft_net.Tcp.mode } in
    let cfg =
      match scenario with
      | Fault_free { payload_bytes } ->
          { base with Bft_net.Tcp.payload_bytes }
      | Clients spec -> { base with Bft_net.Tcp.clients = Some spec }
      | Chaos { seed } ->
          {
            base with
            Bft_net.Tcp.delta_ms = 500.;
            faults = schedule;
            fault_clock = Bft_net.Fault_plane.Views;
            fault_seed = seed;
            link_delay_ms = 20.;
          }
    in
    let substrate = Net mode in
    let result = run protocol cfg in
    (match check result ~target:blocks with
    | Ok () -> ()
    | Error e ->
        failwith
          (Printf.sprintf "crossval (%s): %s" (substrate_name substrate) e));
    let a = account cfg result in
    (* The client summary covers the compared prefix only: how far the
       cluster overshoots [blocks] depends on the wall clock, not on the
       chain. *)
    let in_prefix nr =
      {
        nr with
        Bft_net.Tcp.commits =
          List.filter
            (fun c -> c.Bft_net.Tcp.c_height <= blocks)
            nr.Bft_net.Tcp.commits;
      }
    in
    {
      substrate;
      chain =
        prefix substrate
          (List.map
             (fun c ->
               let b = c.Bft_net.Tcp.c_block in
               {
                 height = b.Bft_types.Block.height;
                 view = b.Bft_types.Block.view;
                 hash = Bft_types.Hash.to_int64 b.Bft_types.Block.hash;
               })
             result.Bft_net.Tcp.nodes.(0).Bft_net.Tcp.commits);
      liveness = a.liveness;
      client_summary =
        Option.map
          (fun spec ->
            client_stats
              { result with nodes = Array.map in_prefix result.nodes }
              ~spec ~view_ms:cfg.delta_ms)
          cfg.clients;
    }
  in
  (* Process mode adds a real SIGKILL and a WAL-file rebuild, so it runs
     exactly when the schedule crashes someone. *)
  let modes =
    Bft_net.Tcp.Threads
    :: (if FS.crash_count schedule > 0 then [ Bft_net.Tcp.Processes ] else [])
  in
  let legs = sim :: List.map net_leg modes in
  {
    schedule;
    blocks;
    legs;
    agree = List.for_all (fun leg -> leg.chain = sim.chain) legs;
  }
