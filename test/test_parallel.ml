open Bft_runtime
module Parallel = Bft_parallel.Parallel

let check = Alcotest.(check bool)

(* --- Parallel.map --------------------------------------------------------------- *)

let test_map_preserves_order () =
  let tasks = List.init 37 Fun.id in
  let f i = i * i in
  check "jobs=4 equals sequential map" true
    (Parallel.map ~jobs:4 f tasks = List.map f tasks)

let test_map_edge_shapes () =
  check "empty task list" true (Parallel.map ~jobs:8 Fun.id [] = []);
  check "more jobs than tasks" true
    (Parallel.map ~jobs:16 string_of_int [ 1; 2; 3 ] = [ "1"; "2"; "3" ]);
  check "jobs=1 stays sequential" true
    (Parallel.map ~jobs:1 succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_map_propagates_exception () =
  (* Two tasks fail; the re-raised exception must deterministically be the
     lowest-index one, whatever domain got there first. *)
  let boom i = Invalid_argument (Printf.sprintf "task %d" i) in
  let f i = if i = 2 || i = 5 then raise (boom i) else i in
  Alcotest.check_raises "lowest-index failure wins" (boom 2) (fun () ->
      ignore (Parallel.map ~jobs:4 f (List.init 8 Fun.id) : int list))

(* --- Determinism of parallel experiment sweeps ----------------------------------- *)

(* A miniature version of what bench/experiments.ml does: fan a grid of
   harness runs out over the pool, render each result to a table row on the
   coordinator.  The rendered table must be byte-identical whatever [jobs]
   is — that is the invariant that lets bench output be diffed across
   machines and job counts. *)
let render_grid ~jobs =
  let grid =
    List.concat_map
      (fun n -> List.map (fun seed -> (n, seed)) [ 1; 2 ])
      [ 4; 7 ]
  in
  let run (n, seed) =
    let config =
      { (Config.local Protocol_kind.Commit_moonshot ~n) with
        Config.seed;
        duration_ms = 2_000.;
      }
    in
    Harness.run config
  in
  let results = Parallel.map ~jobs run grid in
  let b = Buffer.create 256 in
  List.iter2
    (fun (n, seed) (r : Harness.run_result) ->
      Printf.bprintf b "n=%d seed=%d commits=%d lat=%.6f msgs=%d\n" n seed
        r.metrics.Metrics.committed_blocks r.metrics.Metrics.avg_latency_ms
        r.messages_sent)
    grid results;
  Buffer.contents b

let test_parallel_grid_deterministic () =
  let sequential = render_grid ~jobs:1 in
  let parallel = render_grid ~jobs:4 in
  check "grid output has content" true (String.length sequential > 0);
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" sequential parallel

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "order preserved" `Quick test_map_preserves_order;
          Alcotest.test_case "edge shapes" `Quick test_map_edge_shapes;
          Alcotest.test_case "exception propagation" `Quick
            test_map_propagates_exception;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "grid byte-identical across jobs" `Quick
            test_parallel_grid_deterministic;
        ] );
    ]
