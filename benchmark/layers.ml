(* Per-layer metrics of one workload, from its traced run (the {!Span}
   aggregates of CM and J together), the probes taken at the operating
   point that run reached, and the overhead comparisons against untraced
   runs.  A layer the workload does not exercise reads 0: the simulator
   workloads write no frames, the socket workload has no simulated engine. *)

module W = Workload

type inputs = {
  workload : W.t;
  net : bool;
  spans : Span.t;
  traced : W.run list;
  untraced_wall_s : float;  (** Median untraced repetition, all protocols. *)
  trace_overhead_pct : float;  (** [obs]: chaos-clients only, else 0. *)
  wal_overhead_pct : float;  (** [wal]: net-wal only, else 0. *)
  smoke : bool;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let pct ~base x = if base <= 0. then 0. else ((x /. base) -. 1.) *. 100.

let handler_kinds =
  Span.[ Proposal; Vote; Timeout; Other; Start; Timer ]

(* The wall time the spans are charged against: the traced runs on the
   simulator, which runs every node on one thread; on sockets one executor
   per node, each alive for its cluster's whole run. *)
let traced_wall_ns (x : inputs) =
  fsum
    (fun (r : W.run) ->
      match r.W.net with
      | Some res -> float_of_int (Array.length res.W.Tcp.nodes) *. res.W.Tcp.wall_ms *. 1e6
      | None -> r.W.wall_s *. 1e9)
    x.traced

(* Traced wall time no span covers: the simulator's event loop, or the
   socket executors' loops. *)
let uncovered_ns (x : inputs) = traced_wall_ns x -. float_of_int (Span.top_ns x.spans)

(* [(name, value)] for every per-layer metric of BENCHMARK.json. *)
let compute (x : inputs) =
  let t = x.spans in
  let sim = not x.net in
  let runs = x.traced in
  let events = sum (fun r -> r.W.events) runs in
  let blocks = sum (fun r -> r.W.blocks) runs in
  let f = float_of_int in
  let only cond v = if cond then v else 0. in
  let mean k = Span.mean_self_ns t k in
  let protocol_self = List.fold_left (fun acc k -> acc + Span.self_ns t k) 0 handler_kinds in
  let height = List.fold_left (fun acc r -> max acc r.W.height) 0 runs in
  let chain = Probes.chain ~height in
  let crypto = Probes.crypto ~n:x.workload.W.n in
  let engine =
    if sim then Some (Probes.engine_micro ~ops:(if x.smoke then 50 else 1_000))
    else None
  in
  let spec =
    Option.value x.workload.W.clients
      ~default:(Option.get W.chaos_clients.W.clients)
  in
  let clients = List.filter_map (fun r -> r.W.client) runs in
  let net_results = List.filter_map (fun r -> r.W.net) runs in
  let net_sum f =
    List.fold_left
      (fun acc res -> Array.fold_left (fun a nr -> a + f nr) acc res.W.Tcp.nodes)
      0 net_results
  in
  let catch_ups = List.filter_map (fun r -> r.W.catch_up_ms) runs in
  let send_calls = Span.calls t Span.Send + Span.calls t Span.Multicast in
  let send_self = Span.self_ns t Span.Send + Span.self_ns t Span.Multicast in
  [
    ("engine.events", only sim (f events));
    ( "engine.self_ns_per_event",
      only sim (if events = 0 then 0. else uncovered_ns x /. f events) );
    ("engine.timer_ns", only sim (mean Span.Set_timer));
    ( "engine.micro_ns_per_event",
      Option.fold ~none:0. ~some:(fun e -> e.Probes.micro_ns_per_event) engine );
    ( "engine.micro_alloc_b_per_event",
      Option.fold ~none:0. ~some:(fun e -> e.Probes.micro_alloc_b_per_event) engine );
    ("network.multicast_ns", only sim (mean Span.Multicast));
    ("network.send_ns", only sim (mean Span.Send));
    ("network.msgs_per_block", ratio (sum (fun r -> r.W.messages) runs) blocks);
    ("network.bytes_per_block", ratio (sum (fun r -> r.W.bytes) runs) blocks);
    ("cpu_model.calls", f (Span.calls t Span.Cpu_cost));
    ("cpu_model.ns_per_call", mean Span.Cpu_cost);
    ("protocol.self_ns.proposal", mean Span.Proposal);
    ("protocol.self_ns.vote", mean Span.Vote);
    ("protocol.self_ns.timeout", mean Span.Timeout);
    ( "protocol.self_ns.other",
      let c = Span.calls t Span.Other + Span.calls t Span.Start in
      ratio (Span.self_ns t Span.Other + Span.self_ns t Span.Start) c );
    ("protocol.self_ns.timer", mean Span.Timer);
    ("protocol.calls.proposal", f (Span.calls t Span.Proposal));
    ("protocol.calls.vote", f (Span.calls t Span.Vote));
    ("protocol.calls.timeout", f (Span.calls t Span.Timeout));
    ("protocol.calls.other", f (Span.calls t Span.Other + Span.calls t Span.Start));
    ("protocol.calls.timer", f (Span.calls t Span.Timer));
    ("protocol.self_share", f protocol_self /. traced_wall_ns x);
    ("chain.height", f height);
    ("chain.chain_to_ns", chain.Probes.chain_to_ns);
    ("chain.commit_ns", chain.Probes.commit_ns);
    ("chain.is_committed_miss_ns", chain.Probes.is_committed_miss_ns);
    ("crypto.accumulator_add_ns", crypto.Probes.accumulator_add_ns);
    ("crypto.signer_set_add_ns", crypto.Probes.signer_set_add_ns);
    ("mempool.cut_ns", mean Span.Make_payload);
    ( "mempool.replay_ns_per_cmd",
      Probes.replay_ns_per_cmd ~spec ~n:x.workload.W.n );
    ("mempool.deferred", f (sum (fun c -> c.W.deferred) clients));
    ("mempool.rejected", f (sum (fun c -> c.W.rejected) clients));
    ("runtime.on_commit_ns", mean Span.On_commit);
    ("runtime.on_propose_ns", mean Span.On_propose);
    ("obs.trace_overhead_pct", x.trace_overhead_pct);
    ( "faults.catch_up_ms",
      match catch_ups with [] -> 0. | l -> Bft_stats.Descriptive.mean l );
    ("faults.messages_during_heal", f (sum (fun r -> r.W.heal_messages) runs));
    ("codec.encode_ns", mean Span.Encode);
    ("codec.decode_ns", mean Span.Decode);
    ( "codec.frame_bytes",
      ratio (net_sum (fun nr -> nr.W.Tcp.bytes_sent)) (net_sum (fun nr -> nr.W.Tcp.messages_sent)) );
    (* The send spans' self time excludes the nested encode. *)
    ("conn.enqueue_ns", only x.net (ratio send_self send_calls));
    ("conn.frames_sent", f (net_sum (fun nr -> nr.W.Tcp.messages_sent)));
    ( "conn.dropped",
      f (net_sum (fun nr -> Array.fold_left ( + ) 0 nr.W.Tcp.dropped_by_peer)) );
    ("conn.reconnects", f (net_sum (fun nr -> nr.W.Tcp.reconnects)));
    ("wal.encode_ns", mean Span.Wal_encode);
    ("wal.persists", f (Span.calls t Span.Wal_encode));
    ("wal.overhead_pct", x.wal_overhead_pct);
    ( "tcp.unattributed_ms_per_node",
      let nodes = net_sum (fun _ -> 1) in
      if nodes = 0 then 0. else uncovered_ns x /. 1e6 /. f nodes );
    ("bench.span_overhead_pct", pct ~base:x.untraced_wall_s (fsum (fun r -> r.W.wall_s) runs));
  ]

(* Self times are exact only if the per-thread stacks never mixed nodes: no
   slot's spans may have negative self time, and the top-level spans may not
   cover more than the traced wall time.  (The self times themselves always
   add up to the top-level time: each span's duration is either subtracted
   from its parent's or added to the top level.)  Returns the problems
   found. *)
let reconcile (x : inputs) =
  let t = x.spans in
  let uncovered = uncovered_ns x in
  List.concat
    [
      (if Span.min_self t < 0 then
         [ Printf.sprintf "negative self time (%d ns) in the traced run" (Span.min_self t) ]
       else []);
      (if uncovered < 0. then
         [ Printf.sprintf "spans cover more than the traced wall time (%.0f ns over)" (-.uncovered) ]
       else []);
    ]
