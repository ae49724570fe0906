(* Property-based tests (qcheck, registered as alcotest cases).

   The headline property is the SMR safety invariant: under randomly drawn
   network sizes, latencies, seeds, leader schedules, silent-Byzantine sets
   and equivocating proposers, no two honest nodes ever commit different
   blocks at the same height.  The metrics collector enforces this globally
   during every harness run and raises on violation, so "the run returns" is
   the property. *)

open Bft_runtime
module Schedules = Bft_workload.Schedules

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

(* --- generators ----------------------------------------------------------------- *)

let protocol_gen =
  QCheck.Gen.oneofl
    [
      Protocol_kind.Simple_moonshot;
      Protocol_kind.Pipelined_moonshot;
      Protocol_kind.Commit_moonshot;
      Protocol_kind.Jolteon;
    ]

let schedule_gen =
  QCheck.Gen.oneofl
    [ Schedules.Round_robin; Schedules.Best_case; Schedules.Worst_moonshot;
      Schedules.Worst_jolteon ]

let config_gen =
  let* n = QCheck.Gen.int_range 4 10 in
  let* protocol = protocol_gen in
  let* schedule = schedule_gen in
  let f = (n - 1) / 3 in
  let* f' = QCheck.Gen.int_range 0 f in
  let* seed = QCheck.Gen.int_range 1 10_000 in
  let* base = QCheck.Gen.float_range 2. 30. in
  let* jitter = QCheck.Gen.float_range 0. 10. in
  let* equivocate = QCheck.Gen.bool in
  let byzantine =
    (* An equivocator on top of the silent set, while staying within f. *)
    if equivocate && f' < f then [ (0, Byzantine.Equivocate) ] else []
  in
  QCheck.Gen.return
    {
      (Config.default protocol ~n) with
      Config.f_actual = f';
      schedule;
      seed;
      latency = Config.Uniform { base; jitter };
      bandwidth_bps = None;
      delta_ms = (4. *. (base +. jitter)) +. 10.;
      duration_ms = 1_200.;
      byzantine;
    }

let config_arb =
  QCheck.make config_gen ~print:(fun c -> Format.asprintf "%a" Config.pp c)

(* --- safety under adversarial randomness ------------------------------------------ *)

let prop_safety_random_runs =
  QCheck.Test.make ~count:40 ~name:"safety holds under random adversaries"
    config_arb (fun cfg ->
      (* Harness.run raises Safety_violation on conflicting commits. *)
      let r = Harness.run cfg in
      r.Harness.metrics.Metrics.committed_blocks >= 0)

let prop_liveness_failure_free =
  QCheck.Test.make ~count:25 ~name:"failure-free runs always commit"
    config_arb (fun cfg ->
      let cfg =
        { cfg with Config.f_actual = 0; byzantine = [];
          schedule = Schedules.Round_robin }
      in
      let r = Harness.run cfg in
      r.Harness.metrics.Metrics.committed_blocks > 0)

let prop_safety_under_asynchrony =
  QCheck.Test.make ~count:20 ~name:"safety and recovery across GST"
    config_arb (fun cfg ->
      let cfg =
        {
          cfg with
          Config.gst_ms = 600.;
          pre_gst_extra_ms = 800.;
          duration_ms = 3_000.;
          f_actual = 0;
          byzantine = [];
          schedule = Schedules.Round_robin;
        }
      in
      let r = Harness.run cfg in
      r.Harness.metrics.Metrics.committed_blocks > 0)

let prop_determinism =
  QCheck.Test.make ~count:10 ~name:"identical configs give identical runs"
    config_arb (fun cfg ->
      let a = Harness.run cfg and b = Harness.run cfg in
      a.Harness.metrics.Metrics.committed_blocks
      = b.Harness.metrics.Metrics.committed_blocks
      && a.Harness.bytes_sent = b.Harness.bytes_sent)

(* --- event queue ---------------------------------------------------------------------- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~count:200 ~name:"event queue pops in (time, fifo) order"
    QCheck.(list (pair (float_bound_exclusive 1000.) small_nat))
    (fun entries ->
      let q = Bft_sim.Event_queue.create () in
      List.iteri (fun i (t, v) -> Bft_sim.Event_queue.push q ~time:t (i, v)) entries;
      let rec drain acc =
        match Bft_sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, (seq, _)) -> drain ((t, seq) :: acc)
      in
      let popped = drain [] in
      let rec sorted = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | _ -> true
      in
      sorted popped && List.length popped = List.length entries)

(* --- accumulator ------------------------------------------------------------------------ *)

let prop_accumulator_order_independent =
  QCheck.Test.make ~count:100
    ~name:"threshold fires exactly once for any arrival order"
    QCheck.(pair (int_range 1 20) (list_of_size (QCheck.Gen.return 40) (int_range 0 19)))
    (fun (threshold, arrivals) ->
      let acc = Bft_crypto.Accumulator.create ~n:20 ~threshold in
      let fires = ref 0 in
      List.iter
        (fun signer ->
          match Bft_crypto.Accumulator.add acc 0 ~signer with
          | Bft_crypto.Accumulator.Threshold_reached ->
              incr fires;
              if
                not
                  (Bft_crypto.Accumulator.fold
                     (fun _ ~signers ~complete _ -> complete && signers = [])
                     acc false)
              then fires := 100
          | _ -> ())
        arrivals;
      let distinct = List.sort_uniq compare arrivals in
      if List.length distinct >= threshold then !fires = 1 else !fires = 0)

(* Model-based check of the packed-word signer set: run an arbitrary add
   sequence against a naive hashtable-of-ints model and require every
   observation (each add's result, count, to_list) to agree.  [n] up to 70
   crosses the 32-bit word boundaries, where the bit bookkeeping can
   actually go wrong. *)
let prop_signer_set_matches_model =
  QCheck.Test.make ~count:300 ~name:"packed signer set matches a naive model"
    QCheck.(pair (int_range 1 70) (small_list small_nat))
    (fun (n, ops) ->
      let s = Bft_crypto.Signer_set.create ~n in
      let model : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun raw ->
          let i = raw mod n in
          let fresh = not (Hashtbl.mem model i) in
          if fresh then Hashtbl.replace model i ();
          check (Bft_crypto.Signer_set.add s i = fresh);
          check (Bft_crypto.Signer_set.count s = Hashtbl.length model))
        ops;
      let expected =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model [])
      in
      check (Bft_crypto.Signer_set.to_list s = expected);
      !ok)

(* Same treatment for the accumulator: an arbitrary (key, signer) vote
   sequence against a naive model of the documented contract — an open key
   answers [Duplicate] or [Added], [Threshold_reached] fires exactly at
   the threshold and closes the key, a key among the last [ring_size]
   completions answers [Already_complete], and one pushed out of them
   starts afresh.  After every vote the whole fold must equal the model's
   open keys with their signers and its ring keys without.  Thirty keys
   and up to 300 votes grow the open table, collide in it and push keys
   out of the ring. *)
let prop_accumulator_matches_model =
  QCheck.Test.make ~count:300
    ~name:"accumulator outcomes match a naive per-key model"
    QCheck.(
      pair (int_range 1 10)
        (list_of_size Gen.(int_range 0 300) (pair (int_range 0 29) small_nat)))
    (fun (threshold, votes) ->
      let n = 10 in
      let ring_size = Bft_crypto.Accumulator.ring_size in
      let acc = Bft_crypto.Accumulator.create ~n ~threshold in
      let opened : (int, int list) Hashtbl.t = Hashtbl.create 4 in
      let ring = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (key, raw) ->
          let signer = raw mod n in
          let expected =
            match Hashtbl.find_opt opened key with
            | Some signers when List.mem signer signers -> `Duplicate
            | None when List.mem key !ring -> `Already_complete
            | found ->
                let signers = signer :: Option.value found ~default:[] in
                if List.length signers >= threshold then begin
                  Hashtbl.remove opened key;
                  ring := List.filteri (fun i _ -> i < ring_size) (key :: !ring);
                  `Threshold
                end
                else begin
                  Hashtbl.replace opened key signers;
                  `Added (List.length signers)
                end
          in
          (match (Bft_crypto.Accumulator.add acc key ~signer, expected) with
          | Bft_crypto.Accumulator.Duplicate, `Duplicate -> ()
          | Bft_crypto.Accumulator.Already_complete, `Already_complete -> ()
          | Bft_crypto.Accumulator.Added c, `Added c' -> check (c = c')
          | Bft_crypto.Accumulator.Threshold_reached, `Threshold -> ()
          | _ -> check false);
          let listed =
            Bft_crypto.Accumulator.fold
              (fun k ~signers ~complete l -> (k, signers, complete) :: l)
              acc []
          in
          let model =
            Hashtbl.fold
              (fun k signers l -> (k, List.sort compare signers, false) :: l)
              opened
              (List.map (fun k -> (k, [], true)) !ring)
          in
          check (List.sort compare listed = List.sort compare model))
        votes;
      !ok)

(* --- stats ------------------------------------------------------------------------------- *)

let nonempty_floats =
  QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))

let prop_percentile_bounds =
  QCheck.Test.make ~count:200 ~name:"percentiles stay within [min, max]"
    nonempty_floats (fun xs ->
      let open Bft_stats.Descriptive in
      let p50 = percentile 50. xs in
      p50 >= min xs && p50 <= max xs
      && percentile 0. xs = min xs
      && percentile 100. xs = max xs)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile is monotone in p" nonempty_floats
    (fun xs ->
      let open Bft_stats.Descriptive in
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ] in
      let vals = List.map (fun p -> percentile p xs) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let prop_outliers_partition =
  QCheck.Test.make ~count:200 ~name:"outlier filter partitions the sample"
    nonempty_floats (fun xs ->
      let kept, removed = Bft_stats.Outliers.iqr_filter_on ~value:Fun.id xs in
      List.length kept + List.length removed = List.length xs
      && List.sort compare (kept @ removed) = List.sort compare xs)

(* --- schedules ------------------------------------------------------------------------------ *)

let prop_schedules_are_fair =
  QCheck.Test.make ~count:100 ~name:"every schedule is a permutation (fair LCO)"
    QCheck.(pair (int_range 1 200) (int_range 0 66))
    (fun (n, f_raw) ->
      let f' = min f_raw ((n - 1) / 3) in
      List.for_all
        (fun s ->
          let leader = Schedules.leader_of s ~n ~f' in
          List.sort compare (List.init n (fun v -> leader (v + 1)))
          = List.init n (fun i -> i))
        Schedules.all)

(* --- block store ------------------------------------------------------------------------------ *)

let prop_store_out_of_order_insertion =
  QCheck.Test.make ~count:100
    ~name:"chain reconstruction is insertion-order independent"
    QCheck.(int_range 1 15)
    (fun len ->
      let chain = Test_support.Builders.chain len in
      (* Insert in reverse: every prefix query must still work at the end. *)
      let store = Bft_chain.Block_store.create () in
      List.iter
        (fun b -> ignore (Bft_chain.Block_store.insert store b))
        (List.rev chain);
      match Bft_chain.Block_store.chain_to store (List.nth chain (len - 1)) with
      | Some full -> List.length full = len + 1
      | None -> false)

(* [Commit_log.connects] walks only down to the committed prefix and falls
   back to a full walk on a fork; it must agree with [chain_to] on every
   block, stored or not.  Block [i] extends block [i - 1] three times in
   four, and otherwise a uniformly drawn earlier block, so chains grow long
   and forks leave the committed prefix below its top.  A quarter of the
   blocks are never stored, which puts gaps both above and below the
   committed prefix.  Each commit targets a block [chain_to] can reach; a
   conflicting one raises before it changes the log and is skipped. *)
let block_tree_gen =
  let open QCheck.Gen in
  let* n = int_range 1 40 in
  let* parents = list_repeat n (pair (int_range 0 3) nat) in
  let* stored = list_repeat n (int_range 0 3) in
  let* commits = list_size (int_range 0 4) nat in
  return (parents, stored, commits)

let prop_connects_matches_chain_to =
  QCheck.Test.make ~count:500
    ~name:"connects agrees with chain_to after any committed prefix"
    (QCheck.make block_tree_gen ~print:(fun (parents, stored, commits) ->
         let ints l = String.concat ";" (List.map string_of_int l) in
         Printf.sprintf "parents=[%s] stored=[%s] commits=[%s]"
           (String.concat ";"
              (List.map (fun (k, r) -> Printf.sprintf "(%d,%d)" k r) parents))
           (ints stored) (ints commits)))
    (fun (parents, stored, commits) ->
      let open Bft_chain in
      let n = List.length parents in
      let blocks = Array.make (n + 1) Bft_types.Block.genesis in
      List.iteri
        (fun j (kind, r) ->
          let i = j + 1 in
          let parent = if kind > 0 then i - 1 else r mod i in
          blocks.(i) <-
            Test_support.Builders.block ~view:i ~parent:blocks.(parent) ())
        parents;
      let store = Block_store.create () in
      List.iteri
        (fun j keep ->
          if keep > 0 then ignore (Block_store.insert store blocks.(j + 1)))
        stored;
      let reachable b = Block_store.chain_to store b <> None in
      let log = Commit_log.create () in
      List.iter
        (fun pick ->
          let candidates = List.filter reachable (Array.to_list blocks) in
          let target = List.nth candidates (pick mod List.length candidates) in
          try ignore (Commit_log.commit log store target)
          with Commit_log.Safety_violation _ -> ())
        commits;
      Array.for_all
        (fun b -> Commit_log.connects log store b = reachable b)
        blocks)

(* --- vote rules ---------------------------------------------------------------------------------- *)

let prop_no_normal_vote_for_equivocation =
  QCheck.Test.make ~count:200
    ~name:"normal vote never endorses an equivocating block after an opt vote"
    QCheck.(pair (int_range 1 50) bool)
    (fun (payload_id, flip) ->
      let chain = Test_support.Builders.chain 2 in
      let parent = List.hd chain in
      let voted =
        Test_support.Builders.block ~view:2 ~payload_id ~parent ()
      in
      let proposed =
        if flip then voted
        else Test_support.Builders.block ~view:2 ~payload_id:(payload_id + 1) ~parent ()
      in
      let cert = Test_support.Builders.cert parent in
      let allowed =
        Moonshot.Safety_rules.pipelined_normal_vote ~view:2 ~timeout_view:0
          ~voted_opt:(Some voted) ~voted_main:false ~block:proposed ~cert
      in
      (* Allowed iff the proposal matches the opt-voted block exactly. *)
      allowed = Bft_types.Block.equal voted proposed)


(* --- adversarial scheduling (fuzz net) --------------------------------------------- *)

(* Full-power adversary: arbitrary delivery order, drops, duplicates and
   timers fired at arbitrary moments — safety must survive all of it, with
   and without an equivocating proposer and the pre-commit path. *)
let prop_safety_adversarial_schedules =
  QCheck.Test.make ~count:100 ~name:"safety under adversarial schedules"
    QCheck.(triple (int_range 1 100_000) (int_range 0 1) bool)
    (fun (seed, simple, equivocator) ->
      (* check_safety raises Safety_violation on any conflicting commit. *)
      if simple = 0 then
        Test_support.Fuzz_net.run
          (Test_support.Fuzz_net.create
             (module Moonshot.Simple_node.Protocol)
             ~equivocator ~n:4 ~seed ())
          ~steps:600
      else
        Test_support.Fuzz_net.run
          (Test_support.Fuzz_net.create
             (module Moonshot.Pipelined_node.Protocol)
             ~equivocator ~n:4 ~seed ())
          ~steps:600;
      true)

let prop_safety_adversarial_commit_moonshot =
  QCheck.Test.make ~count:60
    ~name:"commit moonshot safe under adversarial schedules"
    QCheck.(pair (int_range 1 100_000) bool)
    (fun (seed, equivocator) ->
      let net =
        Test_support.Fuzz_net.create
          (module Moonshot.Pipelined_node.Commit_protocol)
          ~equivocator ~n:4 ~seed ()
      in
      Test_support.Fuzz_net.run net ~steps:600;
      true)

let prop_fuzz_can_commit =
  (* Sanity that the fuzz harness is not vacuous: across seeds, benign
     schedules do commit blocks. *)
  QCheck.Test.make ~count:30 ~name:"fuzz net commits on some schedules"
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let net =
        Test_support.Fuzz_net.create
          (module Moonshot.Pipelined_node.Protocol)
          ~n:4 ~seed ()
      in
      Test_support.Fuzz_net.run net ~steps:600;
      (* Not every schedule commits; the aggregate assertion lives in the
         alcotest wrapper below via at least counting deliveries. *)
      Test_support.Fuzz_net.delivered net > 0)

let prop_safety_adversarial_with_crashes =
  (* The adversary additionally crash-stops and restarts nodes at arbitrary
     moments (within the concurrent f budget); restarted nodes come back
     from their WAL alone, so a recovery-time double vote would surface as
     a safety violation here. *)
  QCheck.Test.make ~count:60
    ~name:"safety under adversarial schedules with crash/restart"
    QCheck.(pair (int_range 1 100_000) (int_range 0 2))
    (fun (seed, which) ->
      let run (module P : Bft_types.Protocol_intf.S
                 with type msg = Moonshot.Message.t) =
        Test_support.Fuzz_net.run
          (Test_support.Fuzz_net.create (module P) ~crashes:true ~n:7 ~seed ())
          ~steps:800
      in
      (match which with
      | 0 -> run (module Moonshot.Simple_node.Protocol)
      | 1 -> run (module Moonshot.Pipelined_node.Protocol)
      | _ -> run (module Moonshot.Pipelined_node.Commit_protocol));
      true)

let fuzz_commits_somewhere () =
  let total = ref 0 in
  for seed = 1 to 40 do
    let net =
      Test_support.Fuzz_net.create
        (module Moonshot.Pipelined_node.Protocol)
        ~n:4 ~seed ()
    in
    Test_support.Fuzz_net.run net ~steps:600;
    total := !total + Test_support.Fuzz_net.max_committed net
  done;
  Alcotest.(check bool) "schedules with progress exist" true (!total > 20)


(* --- randomized fault schedules --------------------------------------------------- *)

(* Random crash/recover/partition/loss/delay schedules inside the f budget,
   all healed by 0.6 * duration: the harness's online monitor raises on any
   safety violation and on any node that fails to resume committing within
   k * Delta of the last heal, so "the run returns with a passed check" is
   the property. *)
let fault_run_gen =
  let* n = QCheck.Gen.int_range 4 7 in
  let* protocol = protocol_gen in
  let* seed = QCheck.Gen.int_range 1 10_000 in
  QCheck.Gen.return (n, protocol, seed)

let prop_random_fault_schedules =
  QCheck.Test.make ~count:25
    ~name:"random fault schedules: safe, and committing resumes after heal"
    (QCheck.make fault_run_gen ~print:(fun (n, p, seed) ->
         Printf.sprintf "n=%d %s seed=%d" n (Protocol_kind.short_name p) seed))
    (fun (n, protocol, seed) ->
      let delta = 50. and duration = 4_000. in
      let faults =
        Bft_faults.Fault_schedule.random
          ~rng:(Bft_sim.Rng.create seed)
          ~n
          ~f:((n - 1) / 3)
          ~duration ~delta
      in
      let cfg =
        {
          (Config.local protocol ~n) with
          Config.delta_ms = delta;
          duration_ms = duration;
          seed;
          faults;
        }
      in
      let r = Harness.run cfg in
      (* The checkpoint at the last heal is never superseded (everything is
         healed well before the horizon), so at least one full liveness
         check ran; a violation would have raised during the run. *)
      match r.Harness.fault_summary with
      | Some fs ->
          fs.Harness.liveness.Bft_obs.Liveness.checks_passed >= 1
          && r.Harness.metrics.Metrics.committed_blocks > 0
      | None -> Bft_faults.Fault_schedule.is_empty faults)

(* --- wire and CPU cost models --------------------------------------------------- *)

let message_gen =
  let open QCheck.Gen in
  let block payload_size =
    Bft_types.Block.create ~parent:Bft_types.Block.genesis ~view:1 ~proposer:0
      ~payload:(Bft_types.Payload.make ~id:1 ~size_bytes:payload_size)
  in
  let* payload_size = int_range 0 2_000_000 in
  let* signers = int_range 1 134 in
  let b = block payload_size in
  let* tc_signers = int_range 1 134 in
  let* other_size = int_range 0 2_000_000 in
  let cert = Moonshot.Cert.make ~kind:Moonshot.Vote_kind.Normal ~view:1 ~block:b ~signers in
  let tc = Moonshot.Tc.make ~view:1 ~high_cert:(Some cert) ~signers:tc_signers in
  oneofl
    [
      Moonshot.Message.Opt_propose { block = b };
      Moonshot.Message.Propose { block = b; cert };
      Moonshot.Message.Fb_propose { block = b; cert; tc };
      Moonshot.Message.Vote { kind = Moonshot.Vote_kind.Opt; block = b };
      Moonshot.Message.Timeout { view = 1; lock = Some cert };
      Moonshot.Message.Timeout { view = 1; lock = None };
      Moonshot.Message.Cert_gossip cert;
      Moonshot.Message.Tc_gossip tc;
      Moonshot.Message.Status { view = 1; lock = cert };
      Moonshot.Message.Commit_vote { view = 1; block = b };
      Moonshot.Message.Blocks_response { blocks = [ b; b ] };
      Moonshot.Message.Blocks_response { blocks = [ b; block other_size; b ] };
      Moonshot.Message.Blocks_response { blocks = [] };
      Moonshot.Message.Block_request { hash = b.Bft_types.Block.hash };
    ]

let jolteon_message_gen =
  let open QCheck.Gen in
  let block payload_size =
    Bft_types.Block.create ~parent:Bft_types.Block.genesis ~view:2 ~proposer:1
      ~payload:(Bft_types.Payload.make ~id:2 ~size_bytes:payload_size)
  in
  let* payload_size = int_range 0 2_000_000 in
  let* other_size = int_range 0 2_000_000 in
  let* signers = int_range 1 134 in
  let* tc_signers = int_range 1 134 in
  let b = block payload_size in
  let qc = Moonshot.Cert.make ~kind:Moonshot.Vote_kind.Normal ~view:2 ~block:b ~signers in
  let tc = Moonshot.Tc.make ~view:2 ~high_cert:(Some qc) ~signers:tc_signers in
  oneofl
    [
      Jolteon.Jolteon_msg.Propose { block = b; qc; tc = None };
      Jolteon.Jolteon_msg.Propose { block = b; qc; tc = Some tc };
      Jolteon.Jolteon_msg.Vote { block = b };
      Jolteon.Jolteon_msg.Timeout { round = 1; high_qc = qc };
      Jolteon.Jolteon_msg.Block_request { hash = b.Bft_types.Block.hash };
      Jolteon.Jolteon_msg.Blocks_response { blocks = [ b; block other_size ] };
      Jolteon.Jolteon_msg.Blocks_response { blocks = [ b ] };
    ]

(* A cost writer's result, read back from its one slot. *)
let slot_cost cpu_cost msg =
  let a = [| Float.nan |] in
  cpu_cost msg a 0;
  a.(0)

let moonshot_cost = slot_cost Moonshot.Message.cpu_cost

(* The float-returning cost formulas the slot writers replaced, in
   [Cpu_model]'s terms and their order of operations. *)
let moonshot_formula =
  let open Bft_types.Cpu_model in
  let hash (b : Bft_types.Block.t) =
    hash_payload b.Bft_types.Block.payload.Bft_types.Payload.size_bytes
  in
  function
  | Moonshot.Message.Opt_propose { block } -> verify_signatures 1 +. hash block
  | Propose { block; _ } -> verify_signatures 1 +. cache_check_ms +. hash block
  | Fb_propose { block; cert; tc } ->
      verify_signatures (1 + cert.Moonshot.Cert.signers + tc.Moonshot.Tc.signers)
      +. hash block
  | Vote _ | Commit_vote _ -> verify_signatures 1
  | Timeout _ | Status _ -> verify_signatures 1 +. cache_check_ms
  | Cert_gossip _ | Block_request _ -> cache_check_ms
  | Tc_gossip tc -> verify_signatures tc.Moonshot.Tc.signers
  | Blocks_response { blocks } ->
      List.fold_left (fun acc b -> acc +. hash b +. cache_check_ms) 0. blocks

let jolteon_formula =
  let open Bft_types.Cpu_model in
  let hash (b : Bft_types.Block.t) =
    hash_payload b.Bft_types.Block.payload.Bft_types.Payload.size_bytes
  in
  function
  | Jolteon.Jolteon_msg.Propose { block; qc; tc } ->
      let tc_sigs = match tc with None -> 0 | Some t -> t.Moonshot.Tc.signers in
      verify_signatures (1 + qc.Moonshot.Cert.signers + tc_sigs) +. hash block
  | Vote _ -> verify_signatures 1
  | Timeout _ -> verify_signatures 1 +. cache_check_ms
  | Block_request _ -> cache_check_ms
  | Blocks_response { blocks } ->
      List.fold_left (fun acc b -> acc +. hash b +. cache_check_ms) 0. blocks

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_moonshot_cost_exact =
  QCheck.Test.make ~count:500 ~name:"Moonshot slot costs equal the float formulas bit for bit"
    (QCheck.make message_gen) (fun msg ->
      same_bits (moonshot_cost msg) (moonshot_formula msg))

let prop_jolteon_cost_exact =
  QCheck.Test.make ~count:500 ~name:"Jolteon slot costs equal the float formulas bit for bit"
    (QCheck.make jolteon_message_gen) (fun msg ->
      same_bits (slot_cost Jolteon.Jolteon_msg.cpu_cost msg) (jolteon_formula msg))

let prop_cost_models_sane =
  QCheck.Test.make ~count:200 ~name:"wire sizes and cpu costs are positive and finite"
    (QCheck.make message_gen) (fun msg ->
      let size = Moonshot.Message.size msg in
      let cpu = moonshot_cost msg in
      size > 0 && cpu >= 0. && Float.is_finite cpu)

let prop_proposal_size_monotone_in_payload =
  QCheck.Test.make ~count:200 ~name:"proposal wire size is monotone in payload"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (a, b) ->
      let proposal bytes =
        Moonshot.Message.Opt_propose
          {
            block =
              Bft_types.Block.create ~parent:Bft_types.Block.genesis ~view:1
                ~proposer:0
                ~payload:(Bft_types.Payload.make ~id:1 ~size_bytes:bytes);
          }
      in
      let sa = Moonshot.Message.size (proposal a) in
      let sb = Moonshot.Message.size (proposal b) in
      (a <= b) = (sa <= sb) || sa = sb)

(* --- allocation budget ------------------------------------------------------------ *)

(* Perf tripwire riding along with the property suite: a small Pipelined
   Moonshot run must stay under a pinned bytes-allocated-per-event ceiling.
   The harness counts allocation exactly ({!Bft_obs.Alloc}), so every
   budget below is a deterministic reading, and each keeps the headroom
   its comment states.

   This config measures 37 B/event (also while [cpu_cost] returned a
   boxed float) — at n=4 the per-view costs
   (blocks, certificates, vote records, metrics conses) amortize over only
   3-wide fan-outs, so the figure is dominated by protocol allocations,
   not engine ones.  The 84 ceiling is about two and a quarter times that.
   It measured 41.65 B/event while every vote key kept a table cell for
   the whole run and every node built every certificate.  While every vote
   key made its own array, the certificate table took a cell per view and
   every commit boxed its time and two options, it measured 49.4 B/event
   (ceiling 120).  While every
   timer arming allocated a record, its event wrapper and a cancel thunk,
   it measured 56.6 B/event.  While the chain
   layer kept a parent-to-children index, collected commits in lists and
   swept proposal buffers with a closure, it measured about 88 B/event.  A
   warm-up run keeps one-time module/table initialization out of the
   measurement. *)
let alloc_budget_ceiling = 84.

let alloc_budget () =
  let cfg =
    {
      (Config.local Protocol_kind.Pipelined_moonshot ~n:4) with
      Config.duration_ms = 3_000.;
      payload_bytes = 0;
    }
  in
  ignore (Harness.run cfg);
  let events0 = Harness.events_processed_total () in
  let alloc0 = Harness.bytes_allocated_total () in
  let r = Harness.run cfg in
  let events = Harness.events_processed_total () - events0 in
  let alloc = Harness.bytes_allocated_total () - alloc0 in
  Alcotest.(check bool)
    "run made progress" true
    (events > 0 && r.Harness.metrics.Metrics.committed_blocks > 0);
  let per_event = float_of_int alloc /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes/event within %.0f ceiling" per_event
       alloc_budget_ceiling)
    true
    (per_event <= alloc_budget_ceiling)

(* Second tripwire: a Commit Moonshot run on 1 ms links commits a chain of
   thousands of blocks, so a commit whose cost grows with the chain height
   shows up as bytes per committed block.  This config commits 2198
   blocks and measures 2,553 B/block; the 6,700 ceiling is about two and
   a half times that.  It measured 2,556 while each fan-out run kept a
   seq per copy, 3,345 while every vote key kept a
   table cell for the whole run, 3,928 (ceiling 9,000) while vote keys, the
   certificate table and the commit clock left per-block garbage, and
   4,344 while every timer arming allocated.  Per-block bookkeeping that nothing kept (a
   parent-to-children index, commit lists and their options, a
   signer-set record per vote key) made it about 6,700 B/block, and a
   commit that rebuilt the chain from genesis (allocating an
   (h+1)-element list per commit attempt) about 578,000 B/block (on a
   counter that undercounted the minor heap).  No warm-up: one-time
   initialization amortizes over the 2200 blocks. *)
let longchain_budget_ceiling = 6_700.

let alloc_budget_longchain () =
  let cfg =
    {
      (Config.local Protocol_kind.Commit_moonshot ~n:4) with
      Config.latency = Config.Uniform { base = 1.; jitter = 0. };
      duration_ms = 2_200.;
      payload_bytes = 0;
    }
  in
  let alloc0 = Harness.bytes_allocated_total () in
  let r = Harness.run cfg in
  let alloc = Harness.bytes_allocated_total () - alloc0 in
  let blocks = r.Harness.metrics.Metrics.committed_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks committed, at least 2000" blocks)
    true (blocks >= 2000);
  let per_block = float_of_int alloc /. float_of_int blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes/block within %.0f ceiling" per_block
       longchain_budget_ceiling)
    true
    (per_block <= longchain_budget_ceiling)

(* Third tripwire, on the WAN path the paper's experiments run: a protocol
   at n = 16 on [Config.default] (region latency matrix, 10 Gbit/s egress,
   CPU model), 5 s simulated.  Every delivered message crosses the network
   model, the event queue, the CPU queue and a vote or certificate
   handler.  The budget is per committed block, not per event: a Commit
   Moonshot block costs about n^2 events (all-to-all votes) and a Jolteon
   block about 2n (votes to the next leader), so no one per-event ceiling
   fits both.  Each ceiling is about twice what its protocol measures.

   Commit Moonshot measures 9,384 B/block (28 blocks, 1,914 events
   each); 11,483 while [cpu_cost] returned a boxed float and each fan-out
   run kept a seq per copy; 12,857 while every vote key kept a table cell for the whole run
   and every node built every certificate at its quorum; 14,806 while
   every vote key made its own array, the
   certificate table took a cell per view and every commit boxed its time
   and two options; 16,406 while every timer arming allocated a record, its event
   wrapper and a cancel thunk, and about 24,700 while each vote key cost
   an entry record and a signer-set record besides its bits.  While times, Rng state, vote keys
   and accumulator outcomes were still boxed per message, and while each
   commit vote allocated its (view, hash) key and each buffered proposal
   copied the pending table, it cost several times that.

   Jolteon measures 4,096 B/block (16 blocks, 80 events each), 4,980
   while [cpu_cost] returned a boxed float and each fan-out run kept a seq
   per copy, 4,848
   while each accumulator's table was allocated when its node was built,
   before the run starts counting (its leaders now allocate it at their
   first vote); 6,076 before the certificate table and the commit clock stopped leaving
   per-block garbage, 7,732
   while every timer arming allocated, and about 12,400 before the chain
   layer stopped allocating what it does not keep.  While every call to [process_pending] copied the pending
   table it cost about 3x more per event. *)
let wan_budget_ceiling = function
  | Protocol_kind.Commit_moonshot -> 19_000.
  | _ -> 8_200.

let alloc_budget_wan protocol () =
  let cfg =
    { (Config.default protocol ~n:16) with Config.duration_ms = 5_000. }
  in
  ignore (Harness.run cfg);
  let alloc0 = Harness.bytes_allocated_total () in
  let r = Harness.run cfg in
  let alloc = Harness.bytes_allocated_total () - alloc0 in
  let blocks = r.Harness.metrics.Metrics.committed_blocks in
  Alcotest.(check bool) "run made progress" true (blocks > 0);
  let per_block = float_of_int alloc /. float_of_int blocks in
  let ceiling = wan_budget_ceiling protocol in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes/block (%d blocks, %d events) within %.0f \
                     ceiling"
       per_block blocks r.Harness.events_processed ceiling)
    true (per_block <= ceiling)

(* Fourth tripwire, on the fault and client paths: Commit Moonshot at
   n = 7 on [Config.local] under [Fault_schedule.demo] (a crash, then a
   no-quorum partition, healed before the recovery) with 7k cmd/s of
   wall-clock clients, 10 s simulated: every send crosses the link-window
   overlay and every committed block replays its batch of commands.  It
   measures 6,489 B/block (6,505 while each fan-out run kept a seq per
   copy, 7,617 while every vote key kept a table cell
   for the whole run, 8,538 before vote keys, the certificate table
   and the commit clock stopped leaving per-block garbage, 9,274 while
   every timer arming allocated); the ceiling is about three times that.
   Before
   the synchronizer kept its last request in mutable fields and built its
   retry closure once, and the chain layer stopped allocating what it
   does not keep, it measured about 14,000 B/block; while the overlay's
   queries took the time as a float through closures, and arrival, lane
   and histogram times were boxed per command, about 64,000. *)
let faulted_clients_budget_ceiling = 19_000.

let alloc_budget_faulted_clients () =
  let n = 7 in
  let cfg =
    {
      (Config.local Protocol_kind.Commit_moonshot ~n) with
      Config.duration_ms = 10_000.;
      faults =
        Bft_faults.Fault_schedule.demo ~n ~leader:3 ~crash_at:1_000.
          ~partition_at:1_700. ~heal_at:2_200. ~recover_at:2_700.;
      clients =
        Some
          {
            Bft_mempool.Spec.default with
            Bft_mempool.Spec.rate_per_s = 7_000.;
            lane_capacity = 2048;
            backlog_capacity = 2048;
            max_batch = 256;
          };
    }
  in
  ignore (Harness.run cfg);
  let alloc0 = Harness.bytes_allocated_total () in
  let r = Harness.run cfg in
  let alloc = Harness.bytes_allocated_total () - alloc0 in
  let blocks = r.Harness.metrics.Metrics.committed_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks committed, at least 400" blocks)
    true (blocks >= 400);
  let per_block = float_of_int alloc /. float_of_int blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes/block within %.0f ceiling" per_block
       faulted_clients_budget_ceiling)
    true
    (per_block <= faulted_clients_budget_ceiling)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "consensus",
        q
          [
            prop_safety_random_runs;
            prop_liveness_failure_free;
            prop_safety_under_asynchrony;
            prop_determinism;
          ] );
      ("sim", q [ prop_event_queue_sorted ]);
      ( "crypto",
        q
          [
            prop_accumulator_order_independent;
            prop_signer_set_matches_model;
            prop_accumulator_matches_model;
          ] );
      ( "stats",
        q [ prop_percentile_bounds; prop_percentile_monotone; prop_outliers_partition ]
      );
      ("workload", q [ prop_schedules_are_fair ]);
      ( "chain",
        q [ prop_store_out_of_order_insertion; prop_connects_matches_chain_to ]
      );
      ("rules", q [ prop_no_normal_vote_for_equivocation ]);
      ( "cost-models",
        q
          [
            prop_cost_models_sane;
            prop_proposal_size_monotone_in_payload;
            prop_moonshot_cost_exact;
            prop_jolteon_cost_exact;
          ] );
      ( "fuzz",
        q
          [
            prop_safety_adversarial_schedules;
            prop_safety_adversarial_commit_moonshot;
            prop_safety_adversarial_with_crashes;
            prop_fuzz_can_commit;
          ]
        @ [ Alcotest.test_case "progress exists" `Quick fuzz_commits_somewhere ] );
      ("faults", q [ prop_random_fault_schedules ]);
      ( "alloc",
        [
          Alcotest.test_case "bytes-per-event budget" `Quick alloc_budget;
          Alcotest.test_case "long-chain bytes-per-block budget" `Quick
            alloc_budget_longchain;
          Alcotest.test_case "WAN bytes-per-block budget" `Quick
            (alloc_budget_wan Protocol_kind.Commit_moonshot);
          Alcotest.test_case "Jolteon WAN bytes-per-block budget" `Quick
            (alloc_budget_wan Protocol_kind.Jolteon);
          Alcotest.test_case "faulted clients bytes-per-block budget" `Quick
            alloc_budget_faulted_clients;
        ] );
    ]
