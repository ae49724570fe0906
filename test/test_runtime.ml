open Bft_types
open Bft_runtime
module B = Test_support.Builders

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Protocol_kind ------------------------------------------------------------- *)

let test_kind_names_roundtrip () =
  List.iter
    (fun p ->
      check (Protocol_kind.name p) true
        (Protocol_kind.of_name (Protocol_kind.name p) = Some p);
      check (Protocol_kind.short_name p) true
        (Protocol_kind.of_name (Protocol_kind.short_name p) = Some p))
    Protocol_kind.all;
  check "unknown rejected" true (Protocol_kind.of_name "pbft" = None)

(* --- Config ----------------------------------------------------------------------- *)

let test_config_defaults_valid () =
  Config.validate (Config.default Protocol_kind.Commit_moonshot ~n:100);
  Config.validate (Config.local Protocol_kind.Jolteon ~n:4);
  check "defaults validate" true true

let test_config_rejects_bad () =
  let base = Config.default Protocol_kind.Jolteon ~n:10 in
  let raises cfg =
    try Config.validate cfg; false with Invalid_argument _ -> true
  in
  check "f' too large" true (raises { base with Config.f_actual = 4 });
  check "negative payload" true (raises { base with Config.payload_bytes = -1 });
  check "zero duration" true (raises { base with Config.duration_ms = 0. });
  let equivocator id = [ (id, Byzantine.Equivocate) ] in
  check "equivocator out of range" true
    (raises { base with Config.byzantine = equivocator 10 });
  check "equivocator in silent set" true
    (raises { base with Config.f_actual = 3; byzantine = equivocator 9 })

(* --- Metrics ----------------------------------------------------------------------- *)

let chain = B.chain 3
let blk v = List.nth chain (v - 1)

let test_metrics_quorum_commit () =
  let m = Metrics.create ~n:4 () in
  Metrics.on_propose m ~time:10. (blk 1);
  Metrics.on_commit m ~node:0 ~time:30. (blk 1);
  Metrics.on_commit m ~node:1 ~time:35. (blk 1);
  let partial = Metrics.finish m ~duration_ms:1000. in
  check_int "two commits below quorum" 0 partial.Metrics.committed_blocks;
  Metrics.on_commit m ~node:2 ~time:40. (blk 1);
  let r = Metrics.finish m ~duration_ms:1000. in
  check_int "third node completes the quorum" 1 r.Metrics.committed_blocks;
  check "latency is third commit minus creation" true
    (r.Metrics.latencies_ms = [ 30. ])

(* Socket runs time the same commit as simulated ones, also where the
   protocol quorum n - f exceeds 2f + 1 (n = 5: 4 vs 3; n = 6: 5 vs 3). *)
let test_latency_quorum_shared () =
  List.iter
    (fun (n, q) ->
      let label = Printf.sprintf "n=%d" n in
      (* The collector counts a block committed at exactly its q-th node. *)
      let m = Metrics.create ~n () in
      Metrics.on_propose m ~time:0. (blk 1);
      let committed () = (Metrics.finish m ~duration_ms:1.).Metrics.committed_blocks in
      for node = 0 to q - 2 do
        Metrics.on_commit m ~node ~time:1. (blk 1)
      done;
      check_int (label ^ " metrics below quorum") 0 (committed ());
      Metrics.on_commit m ~node:(q - 1) ~time:1. (blk 1);
      check_int (label ^ " metrics at quorum") 1 (committed ());
      check_int (label ^ " sockets") q (Bft_runtime.Net_harness.quorum ~n))
    [ (4, 3); (5, 3); (6, 3); (7, 5) ]

let test_metrics_dedup_per_node () =
  let m = Metrics.create ~n:4 () in
  Metrics.on_propose m ~time:0. (blk 1);
  Metrics.on_commit m ~node:0 ~time:10. (blk 1);
  Metrics.on_commit m ~node:0 ~time:11. (blk 1);
  Metrics.on_commit m ~node:0 ~time:12. (blk 1);
  let r = Metrics.finish m ~duration_ms:1000. in
  check_int "same node re-commits do not reach quorum" 0 r.Metrics.committed_blocks

let test_metrics_creation_deduped () =
  let m = Metrics.create ~n:4 () in
  Metrics.on_propose m ~time:5. (blk 1);
  Metrics.on_propose m ~time:50. (blk 1);
  List.iter (fun node -> Metrics.on_commit m ~node ~time:60. (blk 1)) [ 0; 1; 2 ];
  let r = Metrics.finish m ~duration_ms:1000. in
  check "first proposal timestamps creation" true (r.Metrics.latencies_ms = [ 55. ]);
  check_int "one proposed block" 1 r.Metrics.proposed_blocks

let test_metrics_global_safety () =
  let m = Metrics.create ~n:4 () in
  let a = blk 1 in
  let b = B.block ~view:2 ~parent:Block.genesis () in
  Metrics.on_commit m ~node:0 ~time:1. a;
  check "conflicting commit detected across nodes" true
    (try
       Metrics.on_commit m ~node:1 ~time:2. b;
       false
     with Bft_chain.Commit_log.Safety_violation _ -> true)

let test_metrics_transfer_rate () =
  let m = Metrics.create ~n:4 () in
  let heavy =
    Block.create ~parent:Block.genesis ~view:1 ~proposer:0
      ~payload:(Payload.make ~id:1 ~size_bytes:1000)
  in
  Metrics.on_propose m ~time:0. heavy;
  List.iter (fun node -> Metrics.on_commit m ~node ~time:10. heavy) [ 0; 1; 2 ];
  let r = Metrics.finish m ~duration_ms:2000. in
  check "bytes accounted" true (r.Metrics.payload_bytes_committed = 1000.);
  check "rate is bytes per second" true (r.Metrics.transfer_rate_bps = 500.)

(* A block quorum-committed without a proposal (a socket run loses a
   crashed process's proposal records) counts with its bytes but adds no
   latency sample. *)
let test_metrics_commit_without_proposal () =
  let m = Metrics.create ~n:4 () in
  let heavy =
    Block.create ~parent:Block.genesis ~view:1 ~proposer:0
      ~payload:(Payload.make ~id:1 ~size_bytes:1000)
  in
  List.iter (fun node -> Metrics.on_commit m ~node ~time:10. heavy) [ 0; 1; 2 ];
  let r = Metrics.finish m ~duration_ms:1000. in
  check_int "counted" 1 r.Metrics.committed_blocks;
  check "no latency sample" true (r.Metrics.latencies_ms = []);
  check "average of none" true (r.Metrics.avg_latency_ms = 0.);
  check "bytes accounted" true (r.Metrics.payload_bytes_committed = 1000.)

(* --- Harness --------------------------------------------------------------------------- *)

let quick_cfg =
  {
    (Config.local Protocol_kind.Pipelined_moonshot ~n:4) with
    Config.duration_ms = 1_000.;
    latency = Config.Uniform { base = 10.; jitter = 0. };
  }

let test_run_seeds_and_summary () =
  let results = Harness.run_seeds quick_cfg ~seeds:[ 1; 2; 3 ] in
  check_int "three runs" 3 (List.length results);
  let s = Harness.summarize results in
  check "summary averages are positive" true
    (s.Harness.blocks_committed > 0. && s.Harness.avg_latency_ms > 0.)

let test_summarize_empty_rejected () =
  check "no results rejected" true
    (try ignore (Harness.summarize []); false with Invalid_argument _ -> true)

let test_run_protocol_explicit_module () =
  let r =
    Harness.run_protocol (module Moonshot.Simple_node.Protocol)
      { quick_cfg with Config.protocol = Protocol_kind.Simple_moonshot }
  in
  check "explicit module runs" true (r.Harness.metrics.Metrics.committed_blocks > 0)

let test_silent_nodes_send_nothing () =
  let cfg =
    { quick_cfg with Config.f_actual = 1; schedule = Bft_workload.Schedules.Best_case }
  in
  let all_honest = Harness.run { cfg with Config.f_actual = 0 } in
  let with_silent = Harness.run cfg in
  check "a silent node reduces traffic" true
    (with_silent.Harness.messages_sent < all_honest.Harness.messages_sent)


let test_chain_quality () =
  let m = Metrics.create ~n:4 () in
  (* Blocks at views 1..3 carry proposers 0, 1, 2 (round-robin builder);
     the third reaches too few nodes to count. *)
  let chain4 = B.chain 4 in
  let b1 = List.nth chain4 0 and b2 = List.nth chain4 1 and b3 = List.nth chain4 2 in
  List.iter (fun b -> Metrics.on_propose m ~time:0. b) [ b1; b2; b3 ];
  List.iter (fun node -> Metrics.on_commit m ~node ~time:10. b1) [ 0; 1; 2 ];
  List.iter (fun node -> Metrics.on_commit m ~node ~time:20. b2) [ 0; 1; 2 ];
  (* b3 committed by too few nodes. *)
  Metrics.on_commit m ~node:0 ~time:30. b3;
  let r = Metrics.finish m ~duration_ms:1000. in
  let q = Metrics.chain_quality r in
  (* Proposers come from the round-robin builder: view v block by (v-1) mod 4. *)
  check "proposer shares counted" true (q = [ (0, 1); (1, 1) ])

let test_model_cpu_increases_latency () =
  (* Zero-jitter network so the comparison is deterministic: each of the 40
     votes a node verifies per view costs sig_verify_ms of serial CPU. *)
  let base =
    {
      (Config.default Protocol_kind.Pipelined_moonshot ~n:40) with
      Config.duration_ms = 3_000.;
      latency = Config.Uniform { base = 20.; jitter = 0. };
      bandwidth_bps = None;
      delta_ms = 100.;
    }
  in
  let with_cpu = Harness.run base in
  let without = Harness.run { base with Config.model_cpu = false } in
  let lat r = r.Harness.metrics.Metrics.avg_latency_ms in
  check "cpu model adds measurable latency" true
    (lat with_cpu > lat without +. 1.)


let test_lso_protocol_happy_path () =
  (* The LSO ablation variant behaves identically to LCO when optimistic
     proposals always succeed (failure-free happy path). *)
  let lso =
    Harness.run_protocol (module Moonshot.Pipelined_node.Lso_protocol) quick_cfg
  in
  let lco =
    Harness.run_protocol (module Moonshot.Pipelined_node.Protocol) quick_cfg
  in
  check "LSO matches LCO absent failures" true
    (lso.Harness.metrics.Metrics.committed_blocks
    = lco.Harness.metrics.Metrics.committed_blocks);
  check "LSO sends fewer proposal bytes" true
    (lso.Harness.bytes_sent < lco.Harness.bytes_sent)

let () =
  Alcotest.run "runtime"
    [
      ("protocol-kind", [ Alcotest.test_case "names" `Quick test_kind_names_roundtrip ]);
      ( "config",
        [
          Alcotest.test_case "defaults valid" `Quick test_config_defaults_valid;
          Alcotest.test_case "rejects bad" `Quick test_config_rejects_bad;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quorum commit" `Quick test_metrics_quorum_commit;
          Alcotest.test_case "one latency quorum" `Quick test_latency_quorum_shared;
          Alcotest.test_case "per-node dedup" `Quick test_metrics_dedup_per_node;
          Alcotest.test_case "creation dedup" `Quick test_metrics_creation_deduped;
          Alcotest.test_case "global safety" `Quick test_metrics_global_safety;
          Alcotest.test_case "transfer rate" `Quick test_metrics_transfer_rate;
          Alcotest.test_case "commit without proposal" `Quick
            test_metrics_commit_without_proposal;
          Alcotest.test_case "chain quality" `Quick test_chain_quality;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seeds + summary" `Quick test_run_seeds_and_summary;
          Alcotest.test_case "empty summary" `Quick test_summarize_empty_rejected;
          Alcotest.test_case "explicit module" `Quick test_run_protocol_explicit_module;
          Alcotest.test_case "silent is silent" `Quick test_silent_nodes_send_nothing;
          Alcotest.test_case "cpu model effect" `Quick test_model_cpu_increases_latency;
          Alcotest.test_case "LSO happy path" `Quick test_lso_protocol_happy_path;
        ] );
    ]
