(* Bechamel micro-benchmarks of the hot paths under the simulation: block
   hashing, vote aggregation, event-queue churn, block-store ancestry, a
   commit on a long chain.  These are per-operation costs, printed in
   nanoseconds; the WAN fan-out prints per event, with bytes allocated. *)

open Bechamel
open Toolkit
open Bft_types

let chain = ref []

let setup () =
  let rec go acc parent view =
    if view > 64 then List.rev acc
    else
      let b =
        Block.create ~parent ~view ~proposer:(view mod 4)
          ~payload:(Payload.make ~id:view ~size_bytes:0)
      in
      go (b :: acc) b (view + 1)
  in
  chain := go [] Block.genesis 1

let test_block_create =
  Test.make ~name:"block-create+hash"
    (Staged.stage (fun () ->
         let parent = List.hd !chain in
         ignore
           (Block.create ~parent ~view:(parent.Block.view + 1) ~proposer:1
              ~payload:(Payload.make ~id:99 ~size_bytes:0))))

let test_vote_aggregation =
  Test.make ~name:"vote-aggregation(n=100,q=67)"
    (Staged.stage (fun () ->
         let acc = Bft_crypto.Accumulator.create ~n:100 ~threshold:67 in
         for signer = 0 to 66 do
           ignore (Bft_crypto.Accumulator.add acc 0 ~signer)
         done))

(* The engine's queue path: times go in and come out through a float
   array slot ([push_from], [min_time_into]) and [take] returns the value
   alone, so neither side boxes a float. *)
let test_event_queue =
  Test.make ~name:"event-queue push+pop x64"
    (Staged.stage (fun () ->
         let q = Bft_sim.Event_queue.create () in
         let slot = [| 0. |] in
         for i = 0 to 63 do
           slot.(0) <- float_of_int (i * 7 mod 64);
           Bft_sim.Event_queue.push_from q slot 0 i
         done;
         while not (Bft_sim.Event_queue.is_empty q) do
           Bft_sim.Event_queue.min_time_into q slot 0;
           ignore (Bft_sim.Event_queue.take q : int)
         done))

(* The per-message path of the paper's WAN runs: all-to-all multicast
   rounds at n = 100 over the region latency matrix with 10 Gbit/s egress
   and a CPU cost, so every copy is its own event, draws from the Rng and
   passes the receiver's CPU queue.  Timed directly rather than through
   bechamel, to report per event (a round is about 20k of them) and the
   bytes each allocates. *)
let engine_wan_fanout () =
  let n = 100 and rounds = 20 in
  let latency = Bft_workload.Regions.latency_model () in
  let net =
    Bft_sim.Network.make ~bandwidth_bps:Bft_workload.Regions.bandwidth_bps
      ~latency ~delta:(Bft_sim.Latency.upper_bound latency) ()
  in
  let e =
    Bft_sim.Engine.create ~n ~network:net ~seed:1
      ~msg_size:(fun (_ : int) -> 200)
      ~cpu_cost:(fun _ a i -> a.(i) <- Cpu_model.sig_verify_ms)
      ()
  in
  let round () =
    for src = 0 to n - 1 do
      Bft_sim.Engine.multicast e ~src src
    done;
    Bft_sim.Engine.run e ~until:(Bft_sim.Engine.now e +. 1000.)
  in
  (* The warm-up round sizes the cell pool and the event heap. *)
  round ();
  let stats = Bft_sim.Engine.stats e in
  let events0 = stats.Bft_sim.Engine.events_processed in
  let bytes0 = Bft_obs.Alloc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    round ()
  done;
  let seconds = Unix.gettimeofday () -. t0 in
  let bytes = Bft_obs.Alloc.allocated_bytes () -. bytes0 in
  let events = float_of_int (stats.Bft_sim.Engine.events_processed - events0) in
  Format.printf "%-36s %12.1f ns/event %8.2f B/event  heap peak %d@."
    "engine WAN fan-out n=100" (seconds *. 1e9 /. events) (bytes /. events)
    stats.Bft_sim.Engine.peak_pending

let test_store_ancestry =
  Test.make ~name:"block-store ancestry depth 64"
    (Staged.stage (fun () ->
         let store = Bft_chain.Block_store.create () in
         List.iter (fun b -> ignore (Bft_chain.Block_store.insert store b)) !chain;
         let tip = List.nth !chain 63 in
         ignore
           (Bft_chain.Block_store.is_ancestor store ~ancestor:Block.genesis
              ~of_:tip)))

(* Each call commits one more block, so this test runs with its own
   sample limit, and the node holds enough blocks above h=4096 for every
   call: bechamel's default sampling (start 1, next run max(1.01 * run,
   run + 1)) makes [commit_calls] calls in [commit_limit] samples. *)
let commit_limit = 200

let commit_calls =
  let rec go run samples acc =
    if samples = 0 then acc
    else
      go (max (int_of_float (float_of_int run *. 1.01)) (run + 1))
        (samples - 1) (acc + run)
  in
  go 1 commit_limit 0

let null_env : unit Env.t =
  {
    id = 0;
    validators = Validator_set.make 4;
    delta = 50.;
    now = (fun () -> 0.);
    send = (fun _ () -> ());
    multicast = (fun () -> ());
    set_timer = (fun _ _ () -> ());
    leader_of = (fun v -> v mod 4);
    make_payload = (fun ~view ~parent:_ -> Payload.make ~id:view ~size_bytes:0);
    on_commit = (fun _ -> ());
    on_propose = (fun _ -> ());
    probe = None;
  }

(* A node that has committed up to h=4096 and stores the next
   [commit_calls] blocks; each call commits the next one. *)
let test_commit_next =
  let h = 4096 in
  let allocate () =
    let core = Moonshot.Node_core.create null_env in
    let parent = ref Block.genesis in
    let blocks =
      Array.init (h + commit_calls) (fun i ->
          let b =
            Block.create ~parent:!parent ~view:(i + 1) ~proposer:(i mod 4)
              ~payload:(Payload.make ~id:(i + 1) ~size_bytes:0)
          in
          Moonshot.Node_core.note_block core b;
          parent := b;
          b)
    in
    Moonshot.Node_core.commit core blocks.(h - 1);
    (core, blocks, ref h)
  in
  Test.make_with_resource ~name:"commit next block at h=4096" Test.uniq
    ~allocate ~free:ignore
    (Staged.stage (fun (core, blocks, next) ->
         Moonshot.Node_core.commit core blocks.(!next);
         incr next))

let test_signer_set =
  Test.make ~name:"signer-set add x200"
    (Staged.stage (fun () ->
         let s = Bft_crypto.Signer_set.create ~n:200 in
         for i = 0 to 199 do
           ignore (Bft_crypto.Signer_set.add s i)
         done))

let test_signer_set_to_list =
  Test.make ~name:"signer-set to_list (n=200, q=134)"
    (Staged.stage
       (let s = Bft_crypto.Signer_set.create ~n:200 in
        for i = 0 to 133 do
          ignore (Bft_crypto.Signer_set.add s i)
        done;
        fun () -> ignore (Bft_crypto.Signer_set.to_list s)))

(* The engine's real hot path: one multicast fans out to n - 1 network
   sends plus a self delivery, and draining the queue processes them all.
   This prices the whole send -> queue -> dispatch pipeline, not just
   queue churn. *)
let test_engine_multicast =
  Test.make ~name:"engine multicast+drain n=200"
    (Staged.stage
       (let net =
          Bft_sim.Network.make
            ~latency:(Bft_sim.Latency.Uniform { base = 10.; jitter = 0. })
            ~delta:50. ()
        in
        let e =
          Bft_sim.Engine.create ~n:200 ~network:net ~seed:1
            ~msg_size:(fun (_ : int) -> 100)
            ()
        in
        for i = 0 to 199 do
          Bft_sim.Engine.set_handler e i (fun ~src:_ _ -> ())
        done;
        fun () ->
          Bft_sim.Engine.multicast e ~src:0 7;
          Bft_sim.Engine.run e ~until:(Bft_sim.Engine.now e +. 1000.)))

let trace_event i =
  {
    Bft_obs.Trace.time = float_of_int i;
    node = i mod 4;
    kind =
      Bft_obs.Trace.Node_event
        (Probe.Vote_sent { view = i; height = i; kind = "normal" });
  }

let test_trace_emit =
  Test.make ~name:"trace emit x64 (enabled)"
    (Staged.stage (fun () ->
         let t = Bft_obs.Trace.create () in
         for i = 0 to 63 do
           Bft_obs.Trace.emit t (trace_event i)
         done))

(* The price an untraced run pays per probe site: one None check, no
   event allocation (the event is built only under [Some]). *)
let test_probe_disabled =
  Test.make ~name:"probe emit x64 (disabled env)"
    (Staged.stage (fun () ->
         let probe : (Probe.event -> unit) option = None in
         for i = 0 to 63 do
           match probe with
           | None -> ()
           | Some f -> f (Probe.Timeout_sent { view = i })
         done))

let default_cfg =
  Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()

let commit_cfg =
  Benchmark.cfg ~limit:commit_limit ~quota:(Time.second 0.5) ~stabilize:true
    ()

(* One bechamel test, printed as ns/op. *)
let bechamel cfg test () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let results = Benchmark.all cfg instances test in
  let analyzed = Analyze.all ols (List.hd instances) results in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Format.printf "%-36s %12.1f ns/op@." name est
      | Some [] | None -> Format.printf "%-36s (no estimate)@." name)
    analyzed

let micros =
  let d = bechamel default_cfg in
  [
    d test_block_create; d test_vote_aggregation; d test_event_queue;
    engine_wan_fanout; d test_engine_multicast; d test_store_ancestry;
    bechamel commit_cfg test_commit_next; d test_signer_set;
    d test_signer_set_to_list; d test_trace_emit; d test_probe_disabled;
  ]

let run () =
  setup ();
  Format.printf "@.== Micro-benchmarks (per-op cost, monotonic clock) ==@.@.";
  List.iter (fun micro -> micro ()) micros
