(* Network-fault scenarios driven through a raw cluster: partitions, healing
   and catch-up.  These exercise behaviours the standard experiment harness
   deliberately does not expose. *)

module Cluster = Test_support.Cluster

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_partitioned_minority_catches_up () =
  (* One of four nodes is cut off; the remaining three form a quorum and
     keep committing.  After healing, gossip (certificates in every message,
     deferred commits) brings the straggler back level. *)
  let c = Cluster.create ~n:4 () in
  Cluster.start c;
  Cluster.isolate c [ 3 ];
  Cluster.run c ~until:1_000.;
  let majority = Cluster.committed c 0 in
  check "majority progressed during the partition" true (majority > 10);
  check_int "straggler saw nothing" 0 (Cluster.committed c 3);
  Cluster.heal c;
  Cluster.run c ~until:2_500.;
  let behind = Cluster.committed c 0 - Cluster.committed c 3 in
  check "straggler caught up after healing" true (behind >= 0 && behind < 10);
  check "straggler reached the current view" true
    (Cluster.current_view c 0 - Cluster.current_view c 3 < 3)

let test_no_quorum_no_progress () =
  (* Two of four isolated: neither side has 2f+1 = 3 nodes; nobody commits
     anything while the partition lasts — and safety trivially holds. *)
  let c = Cluster.create ~n:4 () in
  Cluster.start c;
  Cluster.isolate c [ 2; 3 ];
  Cluster.run c ~until:2_000.;
  check_int "side A stalls" 0 (Cluster.committed c 0);
  check_int "side B stalls" 0 (Cluster.committed c 2);
  Cluster.heal c;
  Cluster.run c ~until:4_000.;
  check "progress resumes after healing" true (Cluster.committed c 0 > 5)

let test_leader_partition_rotates_past () =
  (* Isolating a node only while it leads: views it leads time out, other
     views proceed; its blocks are simply absent, no safety impact. *)
  let c = Cluster.create ~n:4 () in
  Cluster.start c;
  Cluster.isolate c [ 1 ];
  Cluster.run c ~until:1_500.;
  let before = Cluster.committed c 0 in
  check "three nodes keep the chain alive" true (before > 5);
  Cluster.heal c;
  Cluster.run c ~until:3_000.;
  check "node 1 rejoins and contributes" true (Cluster.committed c 1 > before / 2)

let test_repeated_partitions_stay_safe () =
  (* Flapping connectivity: isolate a different node every 500 ms.  The
     commit logs raise Safety_violation on any fork; surviving the run is
     the assertion. *)
  let c = Cluster.create ~n:4 () in
  Cluster.start c;
  List.iter
    (fun (victim, until) ->
      Cluster.isolate c [ victim ];
      Cluster.run c ~until;
      Cluster.heal c;
      Cluster.run c ~until:(until +. 200.))
    [ (0, 500.); (1, 1_200.); (2, 1_900.); (3, 2_600.) ];
  Cluster.run c ~until:4_000.;
  check "chain still grows after the flapping" true (Cluster.committed c 0 > 10);
  (* All nodes should be close to each other again. *)
  let counts = List.init 4 (Cluster.committed c) in
  let mx = List.fold_left max 0 counts and mn = List.fold_left min max_int counts in
  check "nodes converge" true (mx - mn < 15)

let test_commit_moonshot_partition () =
  (* Same catch-up story with the pre-commit path enabled. *)
  let c = Cluster.create ~precommit:true ~n:4 () in
  Cluster.start c;
  Cluster.isolate c [ 3 ];
  Cluster.run c ~until:1_000.;
  Cluster.heal c;
  Cluster.run c ~until:2_500.;
  check "commit moonshot straggler catches up" true
    (Cluster.committed c 0 - Cluster.committed c 3 < 10)


let test_crash_restart_rejoins () =
  (* Crash node 2 mid-run, restart it from its WAL: it resumes from its
     recorded view, syncs missing blocks and keeps committing.  Safety is
     enforced by every commit log. *)
  let c = Cluster.create ~n:4 () in
  Cluster.start c;
  Cluster.run c ~until:800.;
  let before = Cluster.committed c 2 in
  check "progress before the crash" true (before > 5);
  Cluster.crash c 2;
  Cluster.run c ~until:1_600.;
  Cluster.restart c 2;
  Cluster.run c ~until:3_000.;
  check "restarted node catches back up" true
    (Cluster.committed c 0 - Cluster.committed c 2 < 10);
  check "restarted node is in the present" true
    (Cluster.current_view c 0 - Cluster.current_view c 2 < 3)

let test_crash_restart_many_times () =
  let c = Cluster.create ~precommit:true ~n:4 () in
  Cluster.start c;
  List.iter
    (fun (victim, at) ->
      Cluster.run c ~until:at;
      Cluster.crash c victim;
      Cluster.run c ~until:(at +. 300.);
      Cluster.restart c victim)
    [ (0, 400.); (1, 900.); (2, 1_400.); (3, 1_900.) ];
  Cluster.run c ~until:3_500.;
  check "chain survives rolling restarts" true (Cluster.committed c 0 > 20)

let test_crashed_node_is_silent () =
  (* Messages a node sent before its crash may still land within a few
     hops; after that a crashed node sends nothing, because its timers
     died with it. *)
  let c = Cluster.create ~n:4 () in
  Cluster.start c;
  Cluster.run c ~until:800.;
  Cluster.crash c 2;
  let late = ref 0 in
  Bft_sim.Engine.set_delivery_tap c.Cluster.engine (fun ~time ~src ~dst:_ _ ->
      if src = 2 && time >= 850. then incr late);
  Cluster.run c ~until:1_600.;
  check_int "nothing delivered from the crashed node" 0 !late

let () =
  Alcotest.run "scenarios"
    [
      ( "partitions",
        [
          Alcotest.test_case "minority catches up" `Quick
            test_partitioned_minority_catches_up;
          Alcotest.test_case "no quorum, no progress" `Quick test_no_quorum_no_progress;
          Alcotest.test_case "leader partition" `Quick test_leader_partition_rotates_past;
          Alcotest.test_case "flapping links" `Quick test_repeated_partitions_stay_safe;
          Alcotest.test_case "commit moonshot" `Quick test_commit_moonshot_partition;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "rejoin after restart" `Quick test_crash_restart_rejoins;
          Alcotest.test_case "rolling restarts" `Quick test_crash_restart_many_times;
          Alcotest.test_case "crashed node is silent" `Quick test_crashed_node_is_silent;
        ] );
    ]
