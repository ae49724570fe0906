(* Where a run's heap bytes go, per protocol layer entry point.

     dune exec bench/main.exe -- alloc

   Runs Commit Moonshot and Jolteon on the [wan-n100] benchmark workload's
   configuration (n = 100, [Config.default]: region latency matrix, egress
   and CPU models on, 1800-byte payloads, 25 s simulated, seed 1) through
   [Make], a [Protocol_intf.S] wrapper that brackets every message handler
   (by [P.classify]), [start], every timer callback and every [Env]
   callback the node makes with a minor-heap reading.  A call's own bytes
   are the minor words it allocated minus those of the calls nested in it,
   so a handler is not charged for the [multicast] it makes, nor
   [multicast] for the handlers of the self-delivered copy.  Prints one row
   per class: calls, own bytes per call and own bytes per quorum-committed
   block, then the run's total minor-heap bytes; the rest of the total is
   the substrate's (engine, network and CPU models, metrics).  Prints
   only.

   Minor-heap words only: a block of more than 256 words goes straight to
   the major heap and is not counted.  The wrapper allocates nothing on a
   call except the closure it wraps a timer callback in, which is charged
   to no one. *)

open Bft_types
module Config = Bft_runtime.Config
module Harness = Bft_runtime.Harness
module Kind = Bft_runtime.Protocol_kind

let names =
  [|
    "handle.proposal"; "handle.vote"; "handle.timeout"; "handle.other";
    "start"; "timer"; "env.send"; "env.multicast"; "env.set_timer";
    "env.make_payload"; "env.on_commit"; "env.on_propose";
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

(* Per-class call counts and own words; a stack of open calls, each with
   the minor-words reading at entry and the words of its finished nested
   calls.  Float arrays, so no reading is boxed. *)
let calls = Array.make (Array.length names) 0
let own = Array.make (Array.length names) 0.
let max_depth = 256
let entry = Array.make max_depth 0.
let nested = Array.make max_depth 0.
let depth = ref 0

let reset () =
  Array.fill calls 0 (Array.length calls) 0;
  Array.fill own 0 (Array.length own) 0.;
  depth := 0

let enter () =
  let d = !depth in
  nested.(d) <- 0.;
  depth := d + 1;
  entry.(d) <- Gc.minor_words ()

let leave k =
  let now = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let total = now -. entry.(d) in
  own.(k) <- own.(k) +. (total -. nested.(d));
  calls.(k) <- calls.(k) + 1;
  if d > 0 then nested.(d - 1) <- nested.(d - 1) +. total


module Make (P : Protocol_intf.S) :
  Protocol_intf.S with type msg = P.msg and type wal = P.wal = struct
  type msg = P.msg

  let msg_size = P.msg_size
  let cpu_cost = P.cpu_cost
  let classify = P.classify
  let payload_bytes = P.payload_bytes
  let view_of = P.view_of
  let encode_msg = P.encode_msg
  let decode_msg = P.decode_msg

  type node = P.node
  type wal = P.wal

  let wal_create = P.wal_create
  let wal_encode = P.wal_encode
  let wal_decode = P.wal_decode

  let timed_timer f () =
    enter ();
    match f () with
    | () -> leave timer
    | exception e ->
        leave timer;
        raise e

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
          let d = !depth - 1 in
          if d >= 0 then nested.(d) <- nested.(d) +. (Gc.minor_words () -. w0);
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
let config p =
  {
    (Config.default p ~n:100) with
    Config.payload_bytes = 1800;
    duration_ms = 25_000.;
    seed = 1;
  }

let word_bytes = float_of_int (Sys.word_size / 8)

let report p (m : (module Protocol_intf.S with type msg = 'm)) =
  reset ();
  let w0 = Gc.minor_words () in
  let r = Harness.run_protocol m (config p) in
  let total = (Gc.minor_words () -. w0) *. word_bytes in
  let blocks = r.Harness.metrics.Bft_runtime.Metrics.committed_blocks in
  let per_block x = if blocks > 0 then x /. float_of_int blocks else 0. in
  Printf.printf "%s on wan-n100 (seed 1): %d blocks committed\n"
    (Kind.name p) blocks;
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
  Printf.printf "  %-18s %10s %12s %12.0f\n" "protocol + env" "" ""
    (per_block !attributed);
  Printf.printf "  %-18s %10s %12s %12.0f\n" "whole run" "" ""
    (per_block total);
  print_newline ()

let run () =
  report Kind.Commit_moonshot (module Split_cm);
  report Kind.Jolteon (module Split_j)
