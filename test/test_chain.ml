open Bft_types
open Bft_chain
module B = Test_support.Builders

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Block store ------------------------------------------------------------ *)

let test_store_has_genesis () =
  let s = Block_store.create () in
  check "genesis present" true (Block_store.mem s Block.genesis.Block.hash)

let test_store_insert_idempotent () =
  let s = Block_store.create () in
  let b = B.block ~view:1 ~parent:Block.genesis () in
  check "first insert new" true (Block_store.insert s b);
  check "second insert not new" false (Block_store.insert s b);
  check "stored" true (Block.equal (Block_store.find s b.Block.hash) b)

let test_store_find () =
  let s = Block_store.create () in
  let b1 = B.block ~view:1 ~parent:Block.genesis () in
  let b2a = B.block ~view:2 ~parent:b1 () in
  let b2b = B.block ~view:3 ~parent:b1 () in
  List.iter (fun b -> ignore (Block_store.insert s b)) [ b1; b2a ];
  check "finds a stored block" true
    (Block.equal (Block_store.find s b2a.Block.hash) b2a);
  check "finds its parent" true
    (Block.equal (Block_store.find s b2a.Block.parent) b1);
  Alcotest.check_raises "raises on a missing block" Not_found (fun () ->
      ignore (Block_store.find s b2b.Block.hash))

let test_store_ancestry () =
  let s = Block_store.create () in
  let chain = B.chain 5 in
  List.iter (fun b -> ignore (Block_store.insert s b)) chain;
  let b1 = List.nth chain 0 and b5 = List.nth chain 4 in
  check "b1 ancestor of b5" true
    (Block_store.is_ancestor s ~ancestor:b1 ~of_:b5 = `Yes);
  check "b5 not ancestor of b1" true
    (Block_store.is_ancestor s ~ancestor:b5 ~of_:b1 = `No);
  check "self ancestor" true (Block_store.is_ancestor s ~ancestor:b5 ~of_:b5 = `Yes);
  check "genesis ancestor of all" true
    (Block_store.is_ancestor s ~ancestor:Block.genesis ~of_:b5 = `Yes)

let test_store_ancestry_fork () =
  let s = Block_store.create () in
  let b1 = B.block ~view:1 ~parent:Block.genesis () in
  let b2a = B.block ~view:2 ~parent:b1 () in
  let b2b = B.block ~view:3 ~parent:b1 () in
  let b3a = B.block ~view:4 ~parent:b2a () in
  List.iter (fun b -> ignore (Block_store.insert s b)) [ b1; b2a; b2b; b3a ];
  check "cousin not ancestor" true
    (Block_store.is_ancestor s ~ancestor:b2b ~of_:b3a = `No);
  check "fork point is ancestor of both" true
    (Block_store.is_ancestor s ~ancestor:b1 ~of_:b2b = `Yes)

let test_store_unknown_gap () =
  let s = Block_store.create () in
  let chain = B.chain 3 in
  (* Insert only the tip: its parents are missing. *)
  ignore (Block_store.insert s (List.nth chain 2));
  check "gap reported as unknown" true
    (Block_store.is_ancestor s ~ancestor:Block.genesis ~of_:(List.nth chain 2)
    = `Unknown);
  check "chain_to fails on gap" true
    (Block_store.chain_to s (List.nth chain 2) = None)

let test_store_chain_to () =
  let s = Block_store.create () in
  let chain = B.chain 4 in
  List.iter (fun b -> ignore (Block_store.insert s b)) chain;
  match Block_store.chain_to s (List.nth chain 3) with
  | None -> Alcotest.fail "expected full chain"
  | Some full ->
      check_int "genesis + 4" 5 (List.length full);
      check "starts at genesis" true (Block.is_genesis (List.hd full));
      check "heights ascend" true
        (List.mapi (fun i (b : Block.t) -> b.Block.height = i) full
        |> List.for_all Fun.id)

(* --- Commit log ----------------------------------------------------------------- *)

let store_with blocks =
  let s = Block_store.create () in
  List.iter (fun b -> ignore (Block_store.insert s b)) blocks;
  s

let test_log_initial () =
  let log = Commit_log.create () in
  check_int "empty" 0 (Commit_log.length log);
  check "last is genesis" true (Block.is_genesis (Commit_log.last log));
  check "genesis committed" true
    (Commit_log.is_committed log Block.genesis.Block.hash)

let test_log_commit_chain_order () =
  let chain = B.chain 3 in
  let s = store_with chain in
  let order = ref [] in
  let log = Commit_log.create ~on_commit:(fun b -> order := b :: !order) () in
  (* Committing the tip commits all ancestors first. *)
  Commit_log.commit log s (List.nth chain 2);
  check_int "three new" 3 (List.length !order);
  check "callback ran oldest-first" true
    (List.rev !order |> List.map (fun (b : Block.t) -> b.Block.height)
    = [ 1; 2; 3 ]);
  check_int "length 3" 3 (Commit_log.length log)

let test_log_commit_idempotent () =
  let chain = B.chain 2 in
  let s = store_with chain in
  let count = ref 0 in
  let log = Commit_log.create ~on_commit:(fun _ -> incr count) () in
  Commit_log.commit log s (List.nth chain 1);
  Commit_log.commit log s (List.nth chain 0);
  check_int "recommit commits nothing" 2 !count;
  check_int "length unchanged" 2 (Commit_log.length log)

let test_log_extension () =
  let chain = B.chain 4 in
  let s = store_with chain in
  let count = ref 0 in
  let log = Commit_log.create ~on_commit:(fun _ -> incr count) () in
  Commit_log.commit log s (List.nth chain 1);
  count := 0;
  Commit_log.commit log s (List.nth chain 3);
  check_int "only the suffix commits" 2 !count;
  check "height 3 is the third block" true
    (Block.equal (List.nth (Commit_log.to_list log) 3) (List.nth chain 2))

let test_log_conflict_same_height () =
  let b1 = B.block ~view:1 ~parent:Block.genesis () in
  let b1' = B.block ~view:2 ~parent:Block.genesis () in
  let s = store_with [ b1; b1' ] in
  let log = Commit_log.create () in
  Commit_log.commit log s b1;
  check "conflicting commit raises" true
    (try
       Commit_log.commit log s b1';
       false
     with Commit_log.Safety_violation _ -> true)

let test_log_fork_below_frontier () =
  let b1 = B.block ~view:1 ~parent:Block.genesis () in
  let b2 = B.block ~view:2 ~parent:b1 () in
  let b1' = B.block ~view:3 ~parent:Block.genesis () in
  let b2' = B.block ~view:4 ~parent:b1' () in
  let s = store_with [ b1; b2; b1'; b2' ] in
  let log = Commit_log.create () in
  Commit_log.commit log s b2;
  check "committing a forked descendant raises" true
    (try
       Commit_log.commit log s b2';
       false
     with Commit_log.Safety_violation _ -> true);
  check "the fork's first block was not appended" true
    (Block.equal (Commit_log.last log) b2)

let test_log_missing_ancestor () =
  let chain = B.chain 3 in
  let s = store_with [ List.nth chain 2 ] in
  let log = Commit_log.create () in
  check "missing ancestor is invalid-arg" true
    (try
       Commit_log.commit log s (List.nth chain 2);
       false
     with Invalid_argument _ -> true);
  check_int "nothing committed" 0 (Commit_log.length log)

let test_log_to_list () =
  let chain = B.chain 2 in
  let s = store_with chain in
  let log = Commit_log.create () in
  Commit_log.commit log s (List.nth chain 1);
  check_int "list includes genesis" 3 (List.length (Commit_log.to_list log))


let test_log_long_chain_growth () =
  (* Exercise the commit log's capacity doubling across hundreds of
     heights. *)
  let chain = B.chain 300 in
  let s = store_with chain in
  let log = Commit_log.create () in
  Commit_log.commit log s (List.nth chain 299);
  check_int "all 300 commit" 300 (Commit_log.length log);
  check "tip right" true (Block.equal (Commit_log.last log) (List.nth chain 299));
  check "height 150 is the 150th block" true
    (Block.equal (List.nth (Commit_log.to_list log) 150) (List.nth chain 149))

let () =
  Alcotest.run "chain"
    [
      ( "block-store",
        [
          Alcotest.test_case "genesis present" `Quick test_store_has_genesis;
          Alcotest.test_case "insert idempotent" `Quick test_store_insert_idempotent;
          Alcotest.test_case "find" `Quick test_store_find;
          Alcotest.test_case "ancestry" `Quick test_store_ancestry;
          Alcotest.test_case "ancestry across forks" `Quick test_store_ancestry_fork;
          Alcotest.test_case "unknown on gaps" `Quick test_store_unknown_gap;
          Alcotest.test_case "chain_to" `Quick test_store_chain_to;
        ] );
      ( "commit-log",
        [
          Alcotest.test_case "initial state" `Quick test_log_initial;
          Alcotest.test_case "chain-order commits" `Quick test_log_commit_chain_order;
          Alcotest.test_case "idempotent" `Quick test_log_commit_idempotent;
          Alcotest.test_case "extension" `Quick test_log_extension;
          Alcotest.test_case "conflict detected" `Quick test_log_conflict_same_height;
          Alcotest.test_case "fork below frontier" `Quick test_log_fork_below_frontier;
          Alcotest.test_case "missing ancestor" `Quick test_log_missing_ancestor;
          Alcotest.test_case "to_list" `Quick test_log_to_list;
          Alcotest.test_case "long chain growth" `Quick test_log_long_chain_growth;
        ] );
    ]
