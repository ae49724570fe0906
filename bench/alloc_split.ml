(* Where a run's heap bytes go, per protocol layer entry point.

     dune exec bench/main.exe -- alloc

   Three legs, each for Commit Moonshot and Jolteon, through [Make], a
   [Protocol_intf.S] wrapper that brackets every message handler (by
   [P.classify]), [start], every timer callback, every [Env] callback the
   node makes, the wire codec and the WAL snapshot encoder with a
   minor-heap reading:

   - the simulator on the [wan-n100] benchmark workload's configuration
     (n = 100, [Config.default]: region latency matrix, egress and CPU
     models on, 1800-byte payloads, 25 s simulated, seed 1), which never
     calls the codec;
   - the simulator on the [chaos-clients] workload's configuration at
     seed 1 (n = 7 on [Config.local], 30 s simulated, a crash and a
     no-quorum partition from [Fault_schedule.demo] under the link-window
     overlay, 7k cmd/s of wall-clock clients), where [env.make_payload]
     cuts client batches and [env.on_commit] replays the mempool;
   - localhost sockets on the [net-wal] workload's configuration (threads
     mode, n = 4, a WAL snapshot after every handler, 5k cmd/s of
     clients), for [socket_blocks] blocks.

   A call's own bytes are the minor words it allocated minus those of the
   calls nested in it, so a handler is not charged for the [multicast] it
   makes, nor [multicast] for the handlers of the self-delivered copy or
   the encoding of what it sends.  Prints one row per class: calls, own
   bytes per call and own bytes per quorum-committed block; then the
   attributed sum, the substrate's share (the rest: the engine, network
   and CPU models in the simulator; frame reads, [select], the output
   buffers and their writes, and WAL writes on sockets) and the run's
   total.  Prints only.

   Minor-heap words only: a block of more than 256 words goes straight to
   the major heap and is not counted.  The wrapper allocates nothing on a
   call except the closure it wraps a timer callback in, which is charged
   to no one.  On sockets every validator is one thread of one domain,
   and the domain has one minor-heap counter: each thread keeps its own
   stack of open calls.  No bracketed call makes a blocking system call
   ([send] only fills a buffer that the loop writes between calls), so
   only a tick switches threads inside one, and a tick (50 ms against
   calls of microseconds) charges the other thread's words to it. *)

open Bft_types
module Config = Bft_runtime.Config
module Harness = Bft_runtime.Harness
module Net_harness = Bft_runtime.Net_harness
module Kind = Bft_runtime.Protocol_kind
module Tcp = Bft_net.Tcp

let names =
  [|
    "handle.proposal"; "handle.vote"; "handle.timeout"; "handle.other";
    "start"; "timer"; "env.send"; "env.multicast"; "env.set_timer";
    "env.make_payload"; "env.on_commit"; "env.on_propose"; "codec.encode";
    "codec.decode"; "wal.encode";
  |]

let proposal = 0
let vote = 1
let timeout = 2
let other = 3
let start_k = 4
let timer = 5
let send = 6
let multicast = 7
let set_timer = 8
let make_payload = 9
let on_commit = 10
let on_propose = 11
let encode = 12
let decode = 13
let wal_encode = 14

(* Per-class call counts and own words; per thread, a stack of open calls,
   each with the minor-words reading at entry and the words of its
   finished nested calls.  Float arrays, so no reading is boxed. *)
let calls = Array.make (Array.length names) 0
let own = Array.make (Array.length names) 0.
let max_depth = 256

type stack = { entry : float array; nested : float array; mutable depth : int }

(* Indexed by thread id: the threads alive at once in a run have nearby
   ids, far fewer than 64 apart. *)
let stacks =
  Array.init 64 (fun _ ->
      {
        entry = Array.make max_depth 0.;
        nested = Array.make max_depth 0.;
        depth = 0;
      })

let stack () = stacks.(Thread.id (Thread.self ()) land 63)

let reset () =
  Array.fill calls 0 (Array.length calls) 0;
  Array.fill own 0 (Array.length own) 0.;
  Array.iter (fun st -> st.depth <- 0) stacks

let enter () =
  let st = stack () in
  let d = st.depth in
  st.nested.(d) <- 0.;
  st.depth <- d + 1;
  st.entry.(d) <- Gc.minor_words ()

let leave k =
  let now = Gc.minor_words () in
  let st = stack () in
  let d = st.depth - 1 in
  st.depth <- d;
  let total = now -. st.entry.(d) in
  own.(k) <- own.(k) +. (total -. st.nested.(d));
  calls.(k) <- calls.(k) + 1;
  if d > 0 then st.nested.(d - 1) <- st.nested.(d - 1) +. total

(* [f x] as a bracketed call of class [k]. *)
let bracket k f x =
  enter ();
  match f x with
  | v ->
      leave k;
      v
  | exception e ->
      leave k;
      raise e

module Make (P : Protocol_intf.S) :
  Protocol_intf.S with type msg = P.msg and type wal = P.wal = struct
  type msg = P.msg

  let msg_size = P.msg_size
  let cpu_cost = P.cpu_cost
  let classify = P.classify
  let payload_bytes = P.payload_bytes
  let view_of = P.view_of
  let encode_msg m = bracket encode P.encode_msg m
  let decode_msg s = bracket decode P.decode_msg s

  type node = P.node
  type wal = P.wal

  let wal_create = P.wal_create
  let wal_encode w = bracket wal_encode P.wal_encode w
  let wal_decode = P.wal_decode

  let timed_timer f () = bracket timer f ()

  let wrap_env (env : msg Env.t) =
    {
      env with
      Env.send =
        (fun dst m ->
          enter ();
          env.Env.send dst m;
          leave send);
      multicast =
        (fun m ->
          enter ();
          env.Env.multicast m;
          leave multicast);
      set_timer =
        (fun delay f ->
          (* The wrapper's own closure is hidden from the open call, inline:
             a float passed to a function would be boxed. *)
          let w0 = Gc.minor_words () in
          let g = timed_timer f in
          let st = stack () in
          let d = st.depth - 1 in
          if d >= 0 then
            st.nested.(d) <- st.nested.(d) +. (Gc.minor_words () -. w0);
          enter ();
          let cancel = env.Env.set_timer delay g in
          leave set_timer;
          cancel);
      make_payload =
        (fun ~view ~parent ->
          enter ();
          let p = env.Env.make_payload ~view ~parent in
          leave make_payload;
          p);
      on_commit =
        (fun b ->
          enter ();
          env.Env.on_commit b;
          leave on_commit);
      on_propose =
        (fun b ->
          enter ();
          env.Env.on_propose b;
          leave on_propose);
    }

  let create ?equivocate ?wal env = P.create ?equivocate ?wal (wrap_env env)

  let start nd =
    enter ();
    P.start nd;
    leave start_k

  let handle nd ~src m =
    let k =
      match P.classify m with
      | `Proposal -> proposal
      | `Vote -> vote
      | `Timeout -> timeout
      | `Other -> other
    in
    enter ();
    match P.handle nd ~src m with
    | () -> leave k
    | exception e ->
        leave k;
        raise e

  let msg_digest = P.msg_digest
  let pp_msg = P.pp_msg
  let vote_slot = P.vote_slot
  let state_hash = P.state_hash
  let current_view = P.current_view
  let lock_view = P.lock_view
  let wal_hash = P.wal_hash
  let wal_consistent = P.wal_consistent
end

module Split_cm = Make (Moonshot.Pipelined_node.Commit_protocol)
module Split_j = Make (Jolteon.Jolteon_node.Protocol)

(* [wan-n100]'s configuration (benchmark/workload.ml). *)
let wan_config p =
  {
    (Config.default p ~n:100) with
    Config.payload_bytes = 1800;
    duration_ms = 25_000.;
    seed = 1;
  }

(* [chaos-clients]' configuration (benchmark/workload.ml) at seed 1: its
   [chaos_schedule] draws, in this order, the crashed node and the four
   edges over the first two thirds of the run. *)
let chaos_config p =
  let n = 7 and seed = 1 and duration = 30_000. in
  let span = duration *. 2. /. 3. in
  let rng = Bft_sim.Rng.create (0x0c4a05 + seed) in
  let at frac = (frac +. Bft_sim.Rng.float rng 0.02) *. span in
  let leader = 1 + Bft_sim.Rng.int rng (n - 1) in
  let crash_at = at 0.15 in
  let partition_at = at 0.25 in
  let heal_at = at 0.33 in
  let recover_at = at 0.40 in
  {
    (Config.local p ~n) with
    Config.duration_ms = duration;
    faults =
      Bft_faults.Fault_schedule.demo ~n ~leader ~crash_at ~partition_at
        ~heal_at ~recover_at;
    clients =
      Some
        {
          Bft_mempool.Spec.default with
          Bft_mempool.Spec.clients = 1_000_000;
          rate_per_s = 7_000.;
          clock = Bft_mempool.Spec.Wall;
          lanes = 8;
          lane_capacity = 2048;
          backlog_capacity = 2048;
          max_batch = 256;
          seed;
        };
    seed;
  }

(* [net-wal]'s configuration (benchmark/workload.ml), with its WAL files
   in a directory of their own. *)
let net_config p ~blocks ~wal_dir =
  {
    (Net_harness.config p ~n:4 ~blocks) with
    Tcp.delta_ms = 1000.;
    wal_dir = Some wal_dir;
    fault_seed = 1;
    clients =
      Some
        {
          Bft_mempool.Spec.default with
          Bft_mempool.Spec.clients = 1_000_000;
          rate_per_s = 5_000.;
          clock = Bft_mempool.Spec.Wall;
          lanes = 8;
          lane_capacity = 4096;
          backlog_capacity = 4096;
          max_batch = 512;
          seed = 1;
        };
  }

let word_bytes = float_of_int (Sys.word_size / 8)

(* Run [f], which returns its quorum-committed block count, and print the
   split under [title]. *)
let report title f =
  reset ();
  let w0 = Gc.minor_words () in
  let blocks = f () in
  let total = (Gc.minor_words () -. w0) *. word_bytes in
  let per_block x = if blocks > 0 then x /. float_of_int blocks else 0. in
  Printf.printf "%s: %d blocks committed\n" title blocks;
  Printf.printf "  %-18s %10s %12s %12s\n" "class" "calls" "B/call" "B/block";
  let attributed = ref 0. in
  Array.iteri
    (fun k name ->
      let bytes = own.(k) *. word_bytes in
      attributed := !attributed +. bytes;
      if calls.(k) > 0 then
        Printf.printf "  %-18s %10d %12.1f %12.0f\n" name calls.(k)
          (bytes /. float_of_int calls.(k))
          (per_block bytes))
    names;
  let row name x = Printf.printf "  %-18s %10s %12s %12.0f\n" name "" "" x in
  row "attributed" (per_block !attributed);
  row "substrate" (per_block (total -. !attributed));
  row "whole run" (per_block total);
  print_newline ()

let sim_leg ~workload config p
    (m : (module Protocol_intf.S with type msg = 'm)) =
  report
    (Printf.sprintf "%s on %s (seed 1)" (Kind.name p) workload)
    (fun () ->
      let r = Harness.run_protocol m (config p) in
      r.Harness.metrics.Bft_runtime.Metrics.committed_blocks)

let socket_leg ~blocks p (m : (module Protocol_intf.S with type msg = 'm)) =
  let wal_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "moonshot-alloc-%d" (Unix.getpid ()))
  in
  report
    (Printf.sprintf "%s on net-wal (threads, %d blocks)" (Kind.name p) blocks)
    (fun () ->
      let r = Tcp.run m (net_config p ~blocks ~wal_dir) in
      if Sys.file_exists wal_dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat wal_dir f))
          (Sys.readdir wal_dir);
        Sys.rmdir wal_dir
      end;
      (match Net_harness.check r ~target:blocks with
      | Ok () -> ()
      | Error e -> failwith ("alloc socket leg: " ^ e));
      List.length (Tcp.quorum_latencies r ~quorum:(Net_harness.quorum ~n:4)))

let socket_blocks = 300

let sockets ~blocks =
  socket_leg ~blocks Kind.Commit_moonshot (module Split_cm);
  socket_leg ~blocks Kind.Jolteon (module Split_j)

let sim_legs ~workload config =
  sim_leg ~workload config Kind.Commit_moonshot (module Split_cm);
  sim_leg ~workload config Kind.Jolteon (module Split_j)

let run () =
  sim_legs ~workload:"wan-n100" wan_config;
  sim_legs ~workload:"chaos-clients" chaos_config;
  sockets ~blocks:socket_blocks
