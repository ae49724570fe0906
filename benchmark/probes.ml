(* Probes: layers the traced run cannot see from outside, because the
   protocol calls them internally (the chain, certificate accumulation, the
   mempool replayer), timed through their public functions at the operating
   point the workload reached — its chain height, its n, its client spec.
   Also the engine micro: an n = 200 multicast fanned out and drained. *)

open Bft_types

(* Median over 5 batches of the cost of one operation, in ns, where
   [batch ()] performs [ops] operations. *)
let per_op ~ops batch =
  Workload.median
    (List.init 5 (fun _ ->
         let t0 = Span.now_ns () in
         batch ();
         float_of_int (Span.now_ns () - t0) /. float_of_int ops))

(* [per_op] of [iters] calls of [f]; [f] gets the call's global index. *)
let ns_per_call ~iters f =
  let k = ref 0 in
  per_op ~ops:iters (fun () ->
      for _ = 1 to iters do
        f !k;
        incr k
      done)

let chain_of_height h =
  let blocks = Array.make (h + 1) Block.genesis in
  for i = 1 to h do
    blocks.(i) <-
      Block.create ~parent:blocks.(i - 1) ~view:i ~proposer:(i mod 4)
        ~payload:(Payload.make ~id:i ~size_bytes:0)
  done;
  blocks

(* An environment that does nothing, for driving [Node_core] directly. *)
let null_env : unit Env.t =
  {
    Env.id = 0;
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

(* Calls per batch so that a batch of O(h) calls stays near 20 ms. *)
let iters_at h = max 10 (min 2_000 (400_000 / max 1 h))

type chain = { chain_to_ns : float; commit_ns : float; is_committed_miss_ns : float }

(* [commit_ns] times [Node_core.commit] of the next block on a node that
   has committed up to height [h - 1]: it walks the whole chain
   ([Block_store.chain_to]) before the commit log appends one block.  The
   chain grows by one block per call: h/20 + 20 blocks over the probe. *)
let chain ~height =
  let h = max 1 height in
  let iters = max 4 (min (iters_at h) (h / 100 + 4)) in
  let blocks = chain_of_height (h + (iters * 5) + 1) in
  let store = Bft_chain.Block_store.create () in
  Array.iter (fun b -> ignore (Bft_chain.Block_store.insert store b)) blocks;
  let chain_to_ns =
    ns_per_call ~iters:(iters_at h) (fun _ ->
        ignore (Bft_chain.Block_store.chain_to store blocks.(h)))
  in
  let core = Moonshot.Node_core.create null_env in
  Array.iter (Moonshot.Node_core.note_block core) blocks;
  Moonshot.Node_core.commit core blocks.(h - 1);
  let commit_ns =
    ns_per_call ~iters (fun k ->
        Moonshot.Node_core.commit core blocks.(h + k))
  in
  let log = Moonshot.Node_core.log core in
  let absent = Hash.of_string "not-a-committed-block" in
  let is_committed_miss_ns =
    ns_per_call ~iters:(iters_at h) (fun _ ->
        ignore (Bft_chain.Commit_log.is_committed log absent))
  in
  { chain_to_ns; commit_ns; is_committed_miss_ns }

type crypto = { accumulator_add_ns : float; signer_set_add_ns : float }

(* One full quorum round per key: every signer adds once. *)
let crypto ~n =
  let threshold = Validator_set.quorum (Validator_set.make n) in
  let keys = max 1 (20_000 / n) in
  let ops = keys * n in
  {
    accumulator_add_ns =
      per_op ~ops (fun () ->
          let acc = Bft_crypto.Accumulator.create ~n ~threshold in
          for key = 0 to keys - 1 do
            for signer = 0 to n - 1 do
              ignore (Bft_crypto.Accumulator.add acc key ~signer)
            done
          done);
    signer_set_add_ns =
      per_op ~ops (fun () ->
          for _ = 1 to keys do
            let s = Bft_crypto.Signer_set.create ~n in
            for i = 0 to n - 1 do
              ignore (Bft_crypto.Signer_set.add s i)
            done
          done);
  }

(* Leaders cut one batch per 10 ms view and every batch quorum-commits 5 ms
   later: the replay cost per command drawn, cut included. *)
let replay_ns_per_cmd ~spec ~n =
  let views = 400 in
  let per_batch () =
    let ing = Bft_mempool.Ingest.create ~spec ~n ~view_ms:10. () in
    let parent = ref Block.genesis and drained = ref 0 in
    let t0 = Span.now_ns () in
    for view = 1 to views do
      let now = float_of_int view *. 10. in
      let payload = Bft_mempool.Ingest.cut ing ~view ~parent:!parent ~now in
      let block = Block.create ~parent:!parent ~view ~proposer:0 ~payload in
      drained :=
        !drained
        + Bft_mempool.Ingest.on_quorum_commit ing ~payload ~time:(now +. 5.);
      parent := block
    done;
    float_of_int (Span.now_ns () - t0) /. float_of_int (max 1 !drained)
  in
  Workload.median (List.init 5 (fun _ -> per_batch ()))

type engine = { micro_ns_per_event : float; micro_alloc_b_per_event : float }

let engine_micro ~ops =
  let n = 200 in
  let net =
    Bft_sim.Network.make
      ~latency:(Bft_sim.Latency.Uniform { base = 10.; jitter = 0. })
      ~delta:50. ()
  in
  let e =
    Bft_sim.Engine.create ~n ~network:net ~seed:1
      ~msg_size:(fun (_ : int) -> 100)
      ()
  in
  for i = 0 to n - 1 do
    Bft_sim.Engine.set_handler e i (fun ~src:_ _ -> ())
  done;
  let round () =
    Bft_sim.Engine.multicast e ~src:0 7;
    Bft_sim.Engine.run e ~until:(Bft_sim.Engine.now e +. 1000.)
  in
  (* The first rounds size the engine's pools. *)
  for _ = 1 to 10 do
    round ()
  done;
  let a0 = Gc.allocated_bytes () in
  let ns = ns_per_call ~iters:ops (fun _ -> round ()) /. float_of_int n in
  let events = float_of_int (5 * ops * n) in
  { micro_ns_per_event = ns; micro_alloc_b_per_event = (Gc.allocated_bytes () -. a0) /. events }
