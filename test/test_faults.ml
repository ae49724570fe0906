(* Fault injection end to end: the schedule DSL, the engine's crash/recover
   semantics, WAL crash-recovery (no double votes across restarts) for all
   four protocols, and the acceptance demo — crash a leader, partition the
   survivors, heal, recover — running deterministically with the online
   liveness monitor armed. *)

open Bft_types
open Bft_runtime
module FS = Bft_faults.Fault_schedule
module Mock = Test_support.Mock_env
module B = Test_support.Builders

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- schedule DSL ----------------------------------------------------------- *)

let demo_schedule =
  FS.demo ~n:4 ~leader:1 ~crash_at:500. ~partition_at:1500. ~heal_at:2500.
    ~recover_at:3500.

let test_roundtrip () =
  let s = FS.to_string demo_schedule in
  match FS.of_string s with
  | Ok parsed -> check "roundtrips through text" true (parsed = demo_schedule)
  | Error e -> Alcotest.failf "parse error on %S: %s" s e

let test_parse_errors () =
  List.iter
    (fun s ->
      match FS.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "crash@"; "crash@x:1"; "smash@5:1"; "loss@10-20:1.5"; "partition@5-2:0/1" ]

let test_validate_budget () =
  let ok t = FS.validate ~n:4 ~f:1 ~byzantine:[] t in
  let rejected ?(byzantine = []) t =
    try
      FS.validate ~n:4 ~f:1 ~byzantine t;
      false
    with Invalid_argument _ -> true
  in
  ok [ FS.Crash { node = 0; at = 10. }; FS.Recover { node = 0; at = 20. } ];
  (* A crash with no recovery stays inside the budget too. *)
  ok [ FS.Crash { node = 2; at = 10. } ];
  check "two concurrent crashes exceed f = 1" true
    (rejected
       [
         FS.Crash { node = 0; at = 10. };
         FS.Crash { node = 1; at = 15. };
         FS.Recover { node = 0; at = 30. };
         FS.Recover { node = 1; at = 30. };
       ]);
  check "sequential crash/recover cycles fit" false
    (rejected
       [
         FS.Crash { node = 0; at = 10. };
         FS.Recover { node = 0; at = 20. };
         FS.Crash { node = 1; at = 30. };
         FS.Recover { node = 1; at = 40. };
       ]);
  check "a Byzantine node eats the whole budget" true
    (rejected ~byzantine:[ 3 ] [ FS.Crash { node = 0; at = 10. } ]);
  check "crashing a Byzantine node is rejected" true
    (rejected ~byzantine:[ 0 ] [ FS.Crash { node = 0; at = 10. } ]);
  check "node out of range" true
    (rejected [ FS.Crash { node = 9; at = 10. } ]);
  check "recover before crash" true
    (rejected [ FS.Recover { node = 0; at = 10. } ])

(* [validate]'s budget check is a sweep of the crash/recover timeline: a
   schedule fits [f] exactly when its peak of simultaneous crashes does. *)
let test_max_concurrent () =
  let fits ~f t =
    try
      FS.validate ~n:10 ~f ~byzantine:[] t;
      true
    with Invalid_argument _ -> false
  in
  let overlapping =
    [
      FS.Crash { node = 0; at = 10. };
      FS.Crash { node = 1; at = 15. };
      FS.Recover { node = 0; at = 20. };
      FS.Recover { node = 1; at = 25. };
    ]
  in
  check "sweep counts the overlap" true
    (fits ~f:2 overlapping && not (fits ~f:1 overlapping));
  check "no overlap after interleaved recovery" true
    (fits ~f:1
       [
         FS.Crash { node = 0; at = 10. };
         FS.Recover { node = 0; at = 20. };
         FS.Crash { node = 1; at = 20. };
       ])

let test_random_schedules_valid () =
  for seed = 1 to 50 do
    let n = 4 + (seed mod 5) in
    let f = (n - 1) / 3 in
    let t =
      FS.random
        ~rng:(Bft_sim.Rng.create seed)
        ~n ~f ~duration:5_000. ~delta:50.
    in
    FS.validate ~n ~f ~byzantine:[] t;
    (* Everything heals by 0.6 * duration, leaving room for the bound. *)
    List.iter
      (fun h -> check "heals by 0.6 * duration" true (h <= 3_000.))
      (FS.heal_times t)
  done

(* --- engine crash/recover semantics ------------------------------------------ *)

let make_engine () =
  let net =
    Bft_sim.Network.make
      ~latency:(Bft_sim.Latency.Uniform { base = 10.; jitter = 0. })
      ~delta:50. ()
  in
  Bft_sim.Engine.create ~n:3 ~network:net ~seed:1
    ~msg_size:(fun (_ : string) -> 10)
    ()

let test_crash_quenches_inflight () =
  let e = make_engine () in
  let count = ref 0 in
  let handler ~src:_ (_ : string) = incr count in
  Bft_sim.Engine.set_handler e 1 handler;
  Bft_sim.Engine.send e ~src:0 ~dst:1 "m";
  (* Crash while the message is on the wire; recover (and reinstall the
     handler) before its arrival time: the old incarnation's delivery must
     never reach the new one. *)
  Bft_sim.Engine.schedule_at e 3. (fun () -> Bft_sim.Engine.crash e 1);
  Bft_sim.Engine.schedule_at e 5. (fun () ->
      Bft_sim.Engine.recover e 1;
      Bft_sim.Engine.set_handler e 1 handler);
  Bft_sim.Engine.run e ~until:100.;
  check_int "in-flight delivery quenched" 0 !count

let test_crash_quenches_owned_timer () =
  let e = make_engine () in
  let owned = ref false and unowned = ref false in
  ignore
    (Bft_sim.Engine.set_timer ~owner:0 e 10. (fun () -> owned := true)
      : unit -> unit);
  ignore
    (Bft_sim.Engine.set_timer e 10. (fun () -> unowned := true) : unit -> unit);
  Bft_sim.Engine.schedule_at e 3. (fun () -> Bft_sim.Engine.crash e 0);
  Bft_sim.Engine.schedule_at e 5. (fun () -> Bft_sim.Engine.recover e 0);
  Bft_sim.Engine.run e ~until:100.;
  check "owned timer quenched across crash+recover" false !owned;
  check "unowned timer unaffected" true !unowned

let test_crashed_sends_suppressed () =
  let e = make_engine () in
  let count = ref 0 in
  Bft_sim.Engine.set_handler e 1 (fun ~src:_ (_ : string) -> incr count);
  Bft_sim.Engine.crash e 0;
  Bft_sim.Engine.send e ~src:0 ~dst:1 "m";
  Bft_sim.Engine.multicast e ~src:0 "m";
  Bft_sim.Engine.run e ~until:100.;
  check_int "a down node sends nothing" 0 !count;
  check_int "nothing counted either" 0
    (Bft_sim.Engine.stats e).Bft_sim.Engine.messages_sent

let test_timers_after_recovery_fire () =
  let e = make_engine () in
  let fired = ref false in
  Bft_sim.Engine.crash e 0;
  Bft_sim.Engine.schedule_at e 5. (fun () ->
      Bft_sim.Engine.recover e 0;
      ignore
        (Bft_sim.Engine.set_timer ~owner:0 e 10. (fun () -> fired := true)
          : unit -> unit));
  Bft_sim.Engine.run e ~until:100.;
  check "new incarnation's timer fires" true !fired

(* --- WAL crash-recovery: never a second vote for the same view ----------------- *)

let chain = B.chain 5
let blk v = List.nth chain (v - 1)
let delta = 100.

(* Drive a node (as id 2, a non-leader) to vote in view 1, crash it (drop
   the instance), rebuild it from the same WAL behind a fresh mock, and
   re-deliver the very proposal it already voted for.  A correct recovery
   never emits a second vote for that view. *)
let wal_no_double_vote (type node wal)
    (module P : Bft_types.Protocol_intf.S
      with type msg = Moonshot.Message.t
       and type node = node
       and type wal = wal) () =
  let open Moonshot in
  let wal = P.wal_create () in
  let proposal = Message.Propose { block = blk 1; cert = Cert.genesis } in
  let votes mock =
    List.filter_map
      (function Message.Vote { kind; block } -> Some (kind, block) | _ -> None)
      (Mock.multicasts mock)
  in
  let boot () =
    let mock, env = Mock.create ~n:4 ~delta ~id:2 () in
    let node = P.create ~wal env in
    Mock.attach mock (fun ~src msg -> P.handle node ~src msg);
    P.start node;
    (mock, node)
  in
  let mock, node = boot () in
  P.handle node ~src:0 proposal;
  check_int "voted once before the crash" 1 (List.length (votes mock));
  (* Crash: the instance is gone, only the WAL survives. *)
  let mock2, node2 = boot () in
  P.handle node2 ~src:0 proposal;
  check_int "no second vote for the same view after recovery" 0
    (List.length (votes mock2))

let jolteon_wal_no_double_vote () =
  let wal = Moonshot.Wal.create () in
  let proposal =
    Jolteon.Jolteon_msg.Propose
      { block = blk 1; qc = Moonshot.Cert.genesis; tc = None }
  in
  let votes mock =
    List.filter_map
      (function
        | dst, Jolteon.Jolteon_msg.Vote { block } -> Some (dst, block)
        | _ -> None)
      (Mock.unicasts mock)
  in
  let boot () =
    let mock, env = Mock.create ~n:4 ~delta ~id:2 () in
    let node = Jolteon.Jolteon_node.create ~wal env in
    Mock.attach mock (fun ~src msg -> Jolteon.Jolteon_node.handle node ~src msg);
    Jolteon.Jolteon_node.start node;
    (mock, node)
  in
  let mock, node = boot () in
  Jolteon.Jolteon_node.handle node ~src:0 proposal;
  check_int "voted once before the crash" 1 (List.length (votes mock));
  let mock2, node2 = boot () in
  Jolteon.Jolteon_node.handle node2 ~src:0 proposal;
  check_int "no second vote for the same round after recovery" 0
    (List.length (votes mock2))

(* A leader that crashed after proposing must not re-propose for the same
   view on recovery (that would be an equivocation opportunity). *)
let leader_no_reproposal_after_recovery () =
  let wal = Moonshot.Wal.create () in
  let proposals mock =
    List.filter
      (function
        | Moonshot.Message.Propose _ | Moonshot.Message.Opt_propose _
        | Moonshot.Message.Fb_propose _ ->
            true
        | _ -> false)
      (Mock.multicasts mock)
  in
  let boot () =
    let mock, env = Mock.create ~n:4 ~delta ~id:0 () in
    let node = Moonshot.Pipelined_node.create ~wal env in
    Mock.attach mock (fun ~src msg ->
        Moonshot.Pipelined_node.handle node ~src msg);
    Moonshot.Pipelined_node.start node;
    (mock, node)
  in
  let mock, _node = boot () in
  check_int "leader of view 1 proposes at start" 1
    (List.length (proposals mock));
  let mock2, _node2 = boot () in
  check_int "recovery does not re-propose" 0 (List.length (proposals mock2))

(* --- the acceptance demo through the real harness ------------------------------- *)

let demo_config protocol =
  {
    (Config.local protocol ~n:4) with
    Config.duration_ms = 8_000.;
    faults = demo_schedule;
  }

let commit_log cfg =
  let log = ref [] in
  let r =
    Harness.run
      ~on_commit:(fun ~node b ->
        log := (node, b.Block.height, Hash.to_int b.Block.hash) :: !log)
      cfg
  in
  (r, List.rev !log)

let demo_deterministic protocol () =
  let cfg = demo_config protocol in
  let r1, log1 = commit_log cfg in
  let r2, log2 = commit_log cfg in
  check "identical commit logs across repeats" true (log1 = log2);
  check "identical byte counts" true
    (r1.Harness.bytes_sent = r2.Harness.bytes_sent);
  check "committed through the faults" true
    (r1.Harness.metrics.Metrics.committed_blocks > 0);
  let fs = Option.get r1.Harness.fault_summary in
  let live = fs.Harness.liveness in
  check "liveness checkpoints passed" true
    (live.Bft_obs.Liveness.checks_passed >= 1);
  match live.Bft_obs.Liveness.recoveries with
  | [ rec1 ] ->
      check "the crashed leader recovered" true
        (rec1.Bft_obs.Liveness.node = 1
        && rec1.Bft_obs.Liveness.crashed_at_ms = 500.
        && rec1.Bft_obs.Liveness.recovered_at_ms = 3500.);
      check "and caught up to the quorum height" true
        (Option.is_some rec1.Bft_obs.Liveness.caught_up_at_ms)
  | _ -> Alcotest.fail "expected exactly one recovery in the report"

(* The recovered node must catch up through sync traffic, not by re-voting
   in long-past views: trace the run and look at what node 1 does after its
   recovery at t = 3500. *)
let demo_recovery_syncs () =
  let cfg = demo_config Protocol_kind.Pipelined_moonshot in
  let trace = Bft_obs.Trace.create () in
  ignore (Harness.run ~trace cfg);
  let events = Bft_obs.Trace.events trace in
  check "the crash is in the trace" true
    (List.exists
       (fun (e : Bft_obs.Trace.event) ->
         e.Bft_obs.Trace.kind = Bft_obs.Trace.Fault Bft_obs.Trace.Crash
         && e.Bft_obs.Trace.node = 1)
       events);
  let after_recovery =
    List.filter
      (fun (e : Bft_obs.Trace.event) -> e.Bft_obs.Trace.time >= 3500.)
      events
  in
  check "recovered node receives sync traffic" true
    (List.exists
       (fun (e : Bft_obs.Trace.event) ->
         e.Bft_obs.Trace.node = 1
         &&
         match e.Bft_obs.Trace.kind with
         | Bft_obs.Trace.Delivered { cls = `Other; _ } -> true
         | _ -> false)
       after_recovery);
  (* Old views are settled: any vote the recovered node casts is for a view
     at or past the one its WAL recorded (view at crash time), never a
     re-vote for a previously-voted view. *)
  let crash_view =
    List.fold_left
      (fun acc (e : Bft_obs.Trace.event) ->
        match e.Bft_obs.Trace.kind with
        | Bft_obs.Trace.Delivered { view = Some v; _ }
          when e.Bft_obs.Trace.time < 500. ->
            max acc v
        | _ -> acc)
      0 events
  in
  List.iter
    (fun (e : Bft_obs.Trace.event) ->
      match e.Bft_obs.Trace.kind with
      | Bft_obs.Trace.Delivered { cls = `Vote; view = Some v; src = 1; _ }
        when e.Bft_obs.Trace.time >= 3500. ->
          check "no vote for a pre-crash view after recovery" true
            (v > crash_view)
      | _ -> ())
    after_recovery

(* Crashing and recovering either single node must not be able to violate
   anything even when the recovery lands mid-partition. *)
let demo_overlapping_recovery () =
  let faults =
    [
      FS.Crash { node = 2; at = 400. };
      FS.Partition { groups = [ [ 0; 1 ] ]; from_ = 1_000.; until = 2_200. };
      FS.Recover { node = 2; at = 1_500. };
      FS.Delay_spike { extra_ms = 120.; from_ = 2_400.; until = 3_000. };
    ]
  in
  List.iter
    (fun protocol ->
      let cfg =
        {
          (Config.local protocol ~n:4) with
          Config.duration_ms = 8_000.;
          faults;
        }
      in
      let r = Harness.run cfg in
      check "survives recovery inside a partition" true
        (r.Harness.metrics.Metrics.committed_blocks > 0))
    Protocol_kind.paper

let parse_and_run () =
  (* The textual syntax drives the same machinery. *)
  match FS.of_string "crash@500:1;recover@2000:1" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok faults ->
      let cfg =
        {
          (Config.local Protocol_kind.Simple_moonshot ~n:4) with
          Config.duration_ms = 5_000.;
          faults;
        }
      in
      let r = Harness.run cfg in
      let fs = Option.get r.Harness.fault_summary in
      check_int "one recovery" 1
        (List.length fs.Harness.liveness.Bft_obs.Liveness.recoveries)

let () =
  let wal_case name p = Alcotest.test_case name `Quick (wal_no_double_vote p) in
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          Alcotest.test_case "text roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "budget validation" `Quick test_validate_budget;
          Alcotest.test_case "max concurrent" `Quick test_max_concurrent;
          Alcotest.test_case "random schedules valid" `Quick
            test_random_schedules_valid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "in-flight quenched" `Quick
            test_crash_quenches_inflight;
          Alcotest.test_case "owned timer quenched" `Quick
            test_crash_quenches_owned_timer;
          Alcotest.test_case "down sends suppressed" `Quick
            test_crashed_sends_suppressed;
          Alcotest.test_case "post-recovery timers fire" `Quick
            test_timers_after_recovery_fire;
        ] );
      ( "wal-recovery",
        [
          wal_case "simple moonshot no double vote"
            (module Moonshot.Simple_node.Protocol);
          wal_case "pipelined moonshot no double vote"
            (module Moonshot.Pipelined_node.Protocol);
          wal_case "commit moonshot no double vote"
            (module Moonshot.Pipelined_node.Commit_protocol);
          Alcotest.test_case "jolteon no double vote" `Quick
            jolteon_wal_no_double_vote;
          Alcotest.test_case "leader no re-proposal" `Quick
            leader_no_reproposal_after_recovery;
        ] );
      ( "demo",
        [
          Alcotest.test_case "simple moonshot deterministic" `Quick
            (demo_deterministic Protocol_kind.Simple_moonshot);
          Alcotest.test_case "pipelined moonshot deterministic" `Quick
            (demo_deterministic Protocol_kind.Pipelined_moonshot);
          Alcotest.test_case "commit moonshot deterministic" `Quick
            (demo_deterministic Protocol_kind.Commit_moonshot);
          Alcotest.test_case "jolteon deterministic" `Quick
            (demo_deterministic Protocol_kind.Jolteon);
          Alcotest.test_case "recovery syncs, not re-votes" `Quick
            demo_recovery_syncs;
          Alcotest.test_case "recovery inside a partition" `Quick
            demo_overlapping_recovery;
          Alcotest.test_case "textual schedule end to end" `Quick
            parse_and_run;
        ] );
    ]
