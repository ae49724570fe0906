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
    (* Agreement: no two nodes ever commit different hashes at one height. *)
    let seen : (int, int * int64) Hashtbl.t = Hashtbl.create 64 in
    let conflict nr c =
      match Hashtbl.find_opt seen c.c_height with
      | Some (id0, h0) when h0 <> c.c_hash ->
          Some
            (Printf.sprintf "nodes %d and %d disagree at height %d: %Lx vs %Lx"
               id0 nr.id c.c_height h0 c.c_hash)
      | Some _ -> None
      | None ->
          Hashtbl.add seen c.c_height (nr.id, c.c_hash);
          None
    in
    let nodes = Array.to_list result.nodes in
    match List.find_map progress nodes with
    | Some p -> Error p
    | None -> (
        match
          List.find_map (fun nr -> List.find_map (conflict nr) nr.commits) nodes
        with
        | Some p -> Error p
        | None -> Ok ())

let net_liveness (result : Bft_net.Tcp.result) ~delta =
  let open Bft_net.Tcp in
  let n = Array.length result.nodes in
  (* The monitor's GST is the last scheduled disruption as it actually
     happened on the wall clock: everything after it is the window the
     liveness bound speaks about. *)
  let gst =
    List.fold_left (fun a fe -> Float.max a fe.fe_time_ms) 0.
      result.fault_events
  in
  let mon = Bft_obs.Liveness.create ~n ~delta ~gst in
  (* Replay in wall-time order; same-time ties resolve fault edges before
     commits and quorum milestones after individual commits, matching the
     order the simulator harness generates them in. *)
  let events = ref [] in
  let add t pri run = events := (t, pri, run) :: !events in
  List.iter
    (fun fe ->
      match fe.fe_kind with
      | Bft_obs.Trace.Crash ->
          add fe.fe_time_ms 0 (fun () ->
              Bft_obs.Liveness.note_crash mon ~node:fe.fe_node
                ~time:fe.fe_time_ms)
      | Bft_obs.Trace.Recover ->
          add fe.fe_time_ms 0 (fun () ->
              Bft_obs.Liveness.note_recover mon ~node:fe.fe_node
                ~time:fe.fe_time_ms)
      | _ -> ())
    result.fault_events;
  Array.iter
    (fun nr ->
      List.iter
        (fun c ->
          add c.c_time_ms 1 (fun () ->
              Bft_obs.Liveness.note_commit mon ~node:nr.id ~time:c.c_time_ms
                ~height:c.c_height))
        nr.commits)
    result.nodes;
  List.iter
    (fun (_, qc) ->
      add qc.c_time_ms 2 (fun () ->
          Bft_obs.Liveness.note_quorum_commit mon ~time:qc.c_time_ms
            ~height:qc.c_height ~hash:(Int64.to_int qc.c_hash)))
    (quorum_commits result ~quorum:(quorum ~n));
  List.iter
    (fun (_, _, run) -> run ())
    (List.sort
       (fun (t1, p1, _) (t2, p2, _) ->
         match Float.compare t1 t2 with 0 -> compare p1 p2 | c -> c)
       !events);
  (* Enforce the bound once, from the last disruption — provided the run
     actually covered that window. *)
  let bound = Bft_obs.Liveness.bound mon in
  if result.wall_ms >= gst +. bound then
    Bft_obs.Liveness.check mon ~since:gst ~now:(gst +. bound);
  Bft_obs.Liveness.report mon

let client_stats (result : Bft_net.Tcp.result) ~spec ~view_ms =
  let open Bft_net.Tcp in
  let n = Array.length result.nodes in
  let quorum_time : (int64, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, qc) -> Hashtbl.replace quorum_time qc.c_hash qc.c_time_ms)
    (quorum_commits result ~quorum:(quorum ~n));
  (* Replay node 0's chain (commit order = chain order) through a fresh
     ingestion site, each quorum-committed block once: the commit records
     carry the packed batch references, which is all the replayer needs to
     rebuild every command and its end-to-end latency. *)
  let ing = Bft_mempool.Ingest.create ~spec ~n ~view_ms () in
  List.iter
    (fun c ->
      match Hashtbl.find_opt quorum_time c.c_hash with
      | None -> ()
      | Some t ->
          Hashtbl.remove quorum_time c.c_hash;
          let payload =
            Bft_types.Payload.make ~id:c.c_payload_id
              ~size_bytes:c.c_payload_bytes
          in
          ignore (Bft_mempool.Ingest.on_quorum_commit ing ~payload ~time:t))
    result.nodes.(0).commits;
  Bft_mempool.Ingest.summary ing

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
    {
      substrate;
      chain =
        prefix substrate
          (List.map
             (fun c ->
               {
                 height = c.Bft_net.Tcp.c_height;
                 view = c.Bft_net.Tcp.c_view;
                 hash = c.Bft_net.Tcp.c_hash;
               })
             result.Bft_net.Tcp.nodes.(0).Bft_net.Tcp.commits);
      liveness =
        (if FS.is_empty schedule then None
         else Some (net_liveness result ~delta:cfg.Bft_net.Tcp.delta_ms));
      client_summary =
        Option.map
          (fun spec ->
            client_stats result ~spec ~view_ms:cfg.Bft_net.Tcp.delta_ms)
          cfg.Bft_net.Tcp.clients;
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
