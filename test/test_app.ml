open Bft_types
open Bft_app
module B = Test_support.Builders

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Command expansion ------------------------------------------------------ *)

let test_expansion_deterministic () =
  let p = Payload.make ~id:7 ~size_bytes:1_800 in
  let a = Command.of_payload p and b = Command.of_payload p in
  check_int "ten commands from 1.8kB" 10 (List.length a);
  check "same payload same commands" true (List.for_all2 Command.equal a b)

let test_expansion_depends_on_id () =
  let a = Command.of_payload (Payload.make ~id:1 ~size_bytes:1_800) in
  let b = Command.of_payload (Payload.make ~id:2 ~size_bytes:1_800) in
  check "different payloads different commands" true
    (not (List.for_all2 Command.equal a b))

let test_empty_payload_no_commands () =
  check_int "empty expands to nothing" 0
    (List.length (Command.of_payload (Payload.empty ~id:3)))

(* --- KV store ------------------------------------------------------------------ *)

let test_kv_set_get_del () =
  let kv = Kv_store.create () in
  Kv_store.apply kv (Command.Set { key = "a"; value = 1 });
  check "set visible" true (Kv_store.find kv "a" = Some 1);
  Kv_store.apply kv (Command.Incr { key = "a"; by = 4 });
  check "incr adds" true (Kv_store.find kv "a" = Some 5);
  Kv_store.apply kv (Command.Incr { key = "fresh"; by = 2 });
  check "incr on missing starts from zero" true (Kv_store.find kv "fresh" = Some 2);
  Kv_store.apply kv (Command.Del { key = "a" });
  check "del removes" true (Kv_store.find kv "a" = None);
  check_int "live keys" 1 (Kv_store.size kv);
  check_int "four commands applied" 4 (Kv_store.applied kv)

let test_kv_digest_captures_state_and_history () =
  let a = Kv_store.create () and b = Kv_store.create () in
  Kv_store.apply a (Command.Set { key = "x"; value = 1 });
  Kv_store.apply b (Command.Set { key = "x"; value = 1 });
  check "same history same digest" true (Hash.equal (Kv_store.digest a) (Kv_store.digest b));
  (* Same final bindings via a different number of commands: digests differ
     because the applied count is part of the digest. *)
  Kv_store.apply b (Command.Set { key = "x"; value = 1 });
  check "different history different digest" false
    (Hash.equal (Kv_store.digest a) (Kv_store.digest b))

(* The digest folds the bindings sorted by key, so the order in which keys
   entered the table does not show. *)
let test_kv_bindings_sorted () =
  let store keys =
    let kv = Kv_store.create () in
    List.iter (fun k -> Kv_store.apply kv (Command.Set { key = k; value = 0 })) keys;
    Kv_store.digest kv
  in
  check "sorted" true
    (List.for_all
       (fun keys -> Hash.equal (store keys) (store [ "a"; "b"; "c" ]))
       [ [ "b"; "a"; "c" ]; [ "c"; "b"; "a" ]; [ "b"; "c"; "a" ] ])


let test_command_mix_over_large_payload () =
  (* All three command kinds appear in a big payload, with Set dominating
     (the generator's 2/4 : 1/4 : 1/4 split). *)
  let cmds = Command.of_payload (Payload.make ~id:42 ~size_bytes:180_000) in
  let sets, incrs, dels =
    List.fold_left
      (fun (s, i, d) -> function
        | Command.Set _ -> (s + 1, i, d)
        | Command.Incr _ -> (s, i + 1, d)
        | Command.Del _ -> (s, i, d + 1))
      (0, 0, 0) cmds
  in
  check_int "a thousand commands" 1000 (sets + incrs + dels);
  check "all kinds appear" true (sets > 0 && incrs > 0 && dels > 0);
  check "sets dominate" true (sets > incrs && sets > dels)

let test_kv_digest_insensitive_to_apply_interleaving_of_distinct_keys () =
  (* Same multiset of per-key final effects, same digest (digest folds over
     sorted bindings), as long as the command COUNT matches. *)
  let a = Kv_store.create () and b = Kv_store.create () in
  Kv_store.apply a (Command.Set { key = "x"; value = 1 });
  Kv_store.apply a (Command.Set { key = "y"; value = 2 });
  Kv_store.apply b (Command.Set { key = "y"; value = 2 });
  Kv_store.apply b (Command.Set { key = "x"; value = 1 });
  check "digest is order-insensitive across independent keys" true
    (Hash.equal (Kv_store.digest a) (Kv_store.digest b))

(* --- Ledger ----------------------------------------------------------------------- *)

let payload_chain len =
  (* Chain whose blocks carry ten commands each. *)
  let rec go acc parent view =
    if view > len then List.rev acc
    else
      let b = B.block ~payload_size:1_800 ~view ~parent () in
      go (b :: acc) b (view + 1)
  in
  go [] Block.genesis 1

let test_ledger_applies_in_order () =
  let chain = payload_chain 3 in
  let l = Ledger.create () in
  List.iter (Ledger.apply_block l) chain;
  check_int "height tracks" 3 (Ledger.height l);
  check_int "30 commands" 30 (Ledger.commands_applied l)

let test_ledger_rejects_gaps () =
  let chain = payload_chain 3 in
  let l = Ledger.create () in
  Ledger.apply_block l (List.nth chain 0);
  check "skipping a height raises" true
    (try
       Ledger.apply_block l (List.nth chain 2);
       false
     with Invalid_argument _ -> true)

let test_ledger_replicas_agree () =
  let chain = payload_chain 5 in
  let a = Ledger.create () and b = Ledger.create () in
  List.iter (Ledger.apply_block a) chain;
  (* Replica b only saw the first three blocks. *)
  List.iteri (fun i blk -> if i < 3 then Ledger.apply_block b blk) chain;
  let common = min (Ledger.height a) (Ledger.height b) in
  check_int "common height" 3 common;
  check "prefix digests agree" true
    (match (Ledger.digest_at a common, Ledger.digest_at b common) with
    | Some x, Some y -> Hash.equal x y
    | _ -> false);
  check "tip digests differ" false (Hash.equal (Ledger.digest a) (Ledger.digest b))

let test_ledger_digest_at_bounds () =
  let l = Ledger.create () in
  check "height zero digest exists" true (Ledger.digest_at l 0 <> None);
  check "future height is none" true (Ledger.digest_at l 5 = None)

(* --- Replay determinism ------------------------------------------------------------ *)

let test_batch_expansion_deterministic () =
  (* Batch references expand like any other payload: the packed id fully
     determines the command stream, so replicas replaying the committed
     chain reconstruct identical batches. *)
  let p = Payload.batch ~cursor:4_096 ~watermark:10_000 ~count:12 in
  let a = Command.of_payload p and b = Command.of_payload p in
  check_int "count commands" 12 (List.length a);
  check "expansion deterministic" true (List.for_all2 Command.equal a b);
  let q = Payload.batch ~cursor:4_097 ~watermark:10_000 ~count:12 in
  check "cursor feeds the expansion" true
    (not (List.for_all2 Command.equal a (Command.of_payload q)))

let test_kv_replay_deterministic () =
  (* The same command sequence applied to two fresh stores yields the same
     digest at every step — state is a pure function of the history. *)
  let cmds =
    List.concat_map Command.of_payload
      (List.map (fun id -> Payload.make ~id ~size_bytes:1_800) [ 1; 2; 3; 4 ])
  in
  let a = Kv_store.create () and b = Kv_store.create () in
  List.iter
    (fun c ->
      Kv_store.apply a c;
      Kv_store.apply b c;
      if not (Hash.equal (Kv_store.digest a) (Kv_store.digest b)) then
        Alcotest.fail "digest diverged mid-replay")
    cmds;
  check "final digests agree" true (Hash.equal (Kv_store.digest a) (Kv_store.digest b))

let test_ledger_replay_deterministic () =
  let chain = payload_chain 6 in
  let a = Ledger.create () and b = Ledger.create () in
  List.iter (Ledger.apply_block a) chain;
  List.iter (Ledger.apply_block b) chain;
  check "tip digests agree" true (Hash.equal (Ledger.digest a) (Ledger.digest b));
  for h = 0 to 6 do
    check "prefix digests agree" true
      (match (Ledger.digest_at a h, Ledger.digest_at b h) with
      | Some x, Some y -> Hash.equal x y
      | _ -> false)
  done

(* --- Client latency analysis --------------------------------------------------------- *)

let test_client_analysis () =
  (* Blocks every 100 ms, each committing 300 ms after creation. *)
  let timeline =
    List.init 11 (fun i ->
        let c = float_of_int (i * 100) in
        (c, Some (c +. 300.)))
  in
  let s = Client.analyze timeline in
  check_int "all committed" 11 s.Client.committed_blocks;
  check "period 100" true (Float.abs (s.Client.avg_block_period_ms -. 100.) < 1e-9);
  check "commit 300" true (Float.abs (s.Client.avg_commit_latency_ms -. 300.) < 1e-9);
  check "queueing is half a period" true
    (Float.abs (s.Client.avg_queueing_ms -. 50.) < 1e-9);
  check "end to end sums" true
    (Float.abs (s.Client.avg_end_to_end_ms -. 350.) < 1e-9)

let test_client_counts_lost () =
  let timeline = [ (0., Some 300.); (100., None); (200., Some 500.) ] in
  let s = Client.analyze timeline in
  check_int "lost counted" 1 s.Client.lost_blocks;
  check_int "committed counted" 2 s.Client.committed_blocks

let test_client_needs_two () =
  check "single block rejected" true
    (try
       ignore (Client.analyze [ (0., Some 1.) ]);
       false
     with Invalid_argument _ -> true)

let test_client_period_drives_end_to_end () =
  (* Same commit latency, halved block period: end-to-end improves. *)
  let mk period =
    List.init 21 (fun i ->
        let c = float_of_int (i * period) in
        (c, Some (c +. 300.)))
  in
  let fast = Client.analyze (mk 100) and slow = Client.analyze (mk 200) in
  check "shorter period, lower end-to-end" true
    (fast.Client.avg_end_to_end_ms < slow.Client.avg_end_to_end_ms)

let () =
  Alcotest.run "app"
    [
      ( "command",
        [
          Alcotest.test_case "deterministic expansion" `Quick
            test_expansion_deterministic;
          Alcotest.test_case "payload-id sensitivity" `Quick test_expansion_depends_on_id;
          Alcotest.test_case "empty payload" `Quick test_empty_payload_no_commands;
        ] );
      ( "kv-store",
        [
          Alcotest.test_case "set/incr/del" `Quick test_kv_set_get_del;
          Alcotest.test_case "digest" `Quick test_kv_digest_captures_state_and_history;
          Alcotest.test_case "bindings sorted" `Quick test_kv_bindings_sorted;
          Alcotest.test_case "command mix" `Quick test_command_mix_over_large_payload;
          Alcotest.test_case "digest key-order insensitive" `Quick
            test_kv_digest_insensitive_to_apply_interleaving_of_distinct_keys;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "applies in order" `Quick test_ledger_applies_in_order;
          Alcotest.test_case "rejects gaps" `Quick test_ledger_rejects_gaps;
          Alcotest.test_case "replicas agree on prefix" `Quick test_ledger_replicas_agree;
          Alcotest.test_case "digest_at bounds" `Quick test_ledger_digest_at_bounds;
          Alcotest.test_case "batch expansion deterministic" `Quick
            test_batch_expansion_deterministic;
          Alcotest.test_case "kv replay deterministic" `Quick
            test_kv_replay_deterministic;
          Alcotest.test_case "ledger replay deterministic" `Quick
            test_ledger_replay_deterministic;
        ] );
      ( "client",
        [
          Alcotest.test_case "analysis" `Quick test_client_analysis;
          Alcotest.test_case "lost blocks" `Quick test_client_counts_lost;
          Alcotest.test_case "needs two" `Quick test_client_needs_two;
          Alcotest.test_case "period matters" `Quick test_client_period_drives_end_to_end;
        ] );
    ]
