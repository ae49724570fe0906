(* Client-traffic ingestion tests: batch payload encoding, the
   allocation-free generator/histogram primitives, the sharded mempool's
   admission and fairness behaviour (unit + model-based qcheck), and the
   end-to-end no-loss/no-duplication property through real harness runs —
   including across a crash/recover schedule.

   The mempool is replicated by commit-order replay, so most properties
   reduce to conservation: every submitted command is accounted for as
   exactly one of rejected, committed, pending or backlogged, and no
   sequence number is ever drawn twice. *)

open Bft_types
module Spec = Bft_mempool.Spec
module Arrival = Bft_mempool.Arrival
module Hist = Bft_mempool.Hist
module Lane = Bft_mempool.Lane
module Mempool = Bft_mempool.Mempool
module Ingest = Bft_mempool.Ingest
module Config = Bft_runtime.Config
module Harness = Bft_runtime.Harness
module Protocol_kind = Bft_runtime.Protocol_kind

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The lane, mempool, histogram and arrival generator take and hand back
   times through float array slots; these wrappers give the tests plain
   float times. *)
let lane_push l ~seq ~time = Lane.push l ~seq [| time |] 0

let lane_front_time l =
  let slot = [| nan |] in
  Lane.front_time_into l slot 0;
  slot.(0)

let submit m ~client ~seq ~time = Mempool.submit m ~client ~seq [| time |] 0

let drain m ~count ~f =
  let slot = [| nan |] in
  Mempool.drain m ~count slot 0 ~f:(fun ~seq ~lane ->
      f ~seq ~lane ~time:slot.(0))

let hist_add h v = Hist.add_from h [| v |] 0

let next_time a =
  let slot = [| nan |] in
  Arrival.next_time_into a slot 0;
  slot.(0)

(* --- batch payload encoding ------------------------------------------------ *)

let test_batch_roundtrip () =
  let p = Payload.batch ~cursor:12_345 ~watermark:700_000 ~count:512 in
  check "is_batch" true (Payload.is_batch p);
  check_int "cursor" 12_345 (Payload.batch_cursor p);
  check_int "watermark" 700_000 (Payload.batch_watermark p);
  check_int "items" 512 (Payload.item_count p);
  check_int "bytes" (512 * Payload.item_size) p.Payload.size_bytes

let test_batch_bounds () =
  let m = Payload.batch_field_max in
  let p = Payload.batch ~cursor:m ~watermark:m ~count:0 in
  check "max fields round-trip" true
    (Payload.batch_cursor p = m && Payload.batch_watermark p = m);
  (* The packed id must stay inside the wire codec's 2^61 LEB128 guard
     and strictly positive (negative ids mark equivocation payloads). *)
  check "id under wire bound" true (p.Payload.id < (1 lsl 61) && p.Payload.id > 0);
  check "oversized cursor rejected" true
    (try
       ignore (Payload.batch ~cursor:(m + 1) ~watermark:0 ~count:0);
       false
     with Invalid_argument _ -> true)

let test_non_batch_payloads () =
  check "parametric is not a batch" false
    (Payload.is_batch (Payload.make ~id:17 ~size_bytes:18_000));
  check "equivocation is not a batch" false
    (Payload.is_batch (Payload.make ~id:(-42) ~size_bytes:0));
  check "genesis is not a batch" false (Payload.is_batch Block.genesis.Block.payload)

(* --- histogram ------------------------------------------------------------- *)

let test_hist_quantiles () =
  let h = Hist.create () in
  check "empty quantile" true (Hist.quantile h 0.99 = 0.);
  for i = 1 to 1000 do
    hist_add h (float_of_int i)
  done;
  check_int "count" 1000 (Hist.count h);
  let p50 = Hist.quantile h 0.5 in
  (* Log-bucketed: <= 7% relative error, never above the observed max. *)
  check "p50 near 500" true (p50 > 450. && p50 < 550.);
  check "p100 capped at max" true (Hist.quantile h 1.0 = 1000.);
  check "mean exact" true (Float.abs (Hist.mean h -. 500.5) < 1e-6)

let test_hist_merge_and_clear () =
  let a = Hist.create () and b = Hist.create () in
  hist_add a 1.;
  hist_add b 100.;
  Hist.merge ~into:a b;
  check_int "merged count" 2 (Hist.count a);
  check "merged max" true (Hist.max_value a = 100.);
  Hist.clear a;
  check_int "cleared" 0 (Hist.count a)

(* The histogram as it was while the sum and the maximum were mutable
   float fields, kept as the reference for the slot-based one. *)
module Ref_hist = struct
  let buckets = 400
  let base_v = 0.05
  let log_growth = log 1.07

  let bounds =
    Array.init buckets (fun i -> base_v *. exp (float_of_int i *. log_growth))

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : float;
    mutable max_v : float;
  }

  let create () =
    { counts = Array.make buckets 0; total = 0; sum = 0.; max_v = 0. }

  let add t v =
    let v = if v < 0. then 0. else v in
    let i =
      if v <= base_v then 0
      else
        let i = 1 + int_of_float (log (v /. base_v) /. log_growth) in
        if i >= buckets then buckets - 1 else i
    in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v > t.max_v then t.max_v <- v

  let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total

  let quantile t q =
    if t.total = 0 then 0.
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank = int_of_float (ceil (q *. float_of_int t.total)) in
      let rank = if rank < 1 then 1 else rank in
      let acc = ref 0 and i = ref 0 and found = ref (buckets - 1) in
      (try
         while !i < buckets do
           acc := !acc + t.counts.(!i);
           if !acc >= rank then begin
             found := !i;
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      let b = bounds.(!found) in
      if b > t.max_v then t.max_v else b
    end
end

(* Allocation is counted in minor words: [Gc.allocated_bytes] only catches
   up with the minor heap at a collection. *)
let word_bytes = float_of_int (Sys.word_size / 8)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_hist_matches_reference =
  QCheck.Test.make ~name:"slot histogram matches the reference" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 300)
        (oneof [ float_range (-5.) 1.; float_range 0. 100_000.; always 0.05 ]))
    (fun samples ->
      let h = Hist.create () and r = Ref_hist.create () in
      let slot = [| 0. |] in
      List.iter
        (fun v ->
          slot.(0) <- v;
          Hist.add_from h slot 0;
          Ref_hist.add r v)
        samples;
      Hist.count h = r.Ref_hist.total
      && same_float (Hist.mean h) (Ref_hist.mean r)
      && same_float (Hist.max_value h) r.Ref_hist.max_v
      && List.for_all
           (fun q -> same_float (Hist.quantile h q) (Ref_hist.quantile r q))
           [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ])

(* --- arrival generator ----------------------------------------------------- *)

let test_arrival_deterministic () =
  let spec = { Spec.default with Spec.clients = 1_000; rate_per_s = 10_000. } in
  let a = Arrival.create spec and b = Arrival.create spec in
  for _ = 1 to 10_000 do
    check_int "same client" (Arrival.next_client a) (Arrival.next_client b);
    check "same time" true (next_time a = next_time b);
    Arrival.advance a;
    Arrival.advance b
  done;
  check_int "same position" (Arrival.seq a) (Arrival.seq b)

let test_arrival_views_slots () =
  let spec = { Spec.default with Spec.clock = Spec.Views; per_view = 64 } in
  let a = Arrival.create spec in
  (* Arrival [s] becomes visible in view slot [1 + s / per_view]; the
     generator starts at slot 0 (genesis view) before its first advance. *)
  check "starts at genesis slot" true (next_time a = 0.);
  Arrival.advance a;
  check "first visible slot" true (next_time a = 1.);
  check_int "watermark at view 3" (3 * 64) (Arrival.count_until a ~now:3.);
  check_int "monotone watermark" (5 * 64) (Arrival.count_until a ~now:5.)

let test_arrival_wall_rate () =
  let spec = { Spec.default with Spec.rate_per_s = 20_000. } in
  let a = Arrival.create spec in
  let n = Arrival.count_until a ~now:1_000. in
  (* Poisson with lambda = 20k over one second: far outside these bounds
     is astronomically unlikely. *)
  check "rate honoured" true (n > 18_000 && n < 22_000)

let test_arrival_client_range () =
  let spec = { Spec.default with Spec.clients = 77 } in
  let a = Arrival.create spec in
  for s = 0 to 10_000 do
    let c = Arrival.client_of a s in
    if c < 0 || c >= 77 then Alcotest.failf "client %d out of range at %d" c s
  done

(* Generating arrivals allocates nothing: 100k wall-clock arrivals cost
   under 0.01 B each.  While the arrival time was a mutable float field
   and each gap a returned float, every arrival allocated 32 B. *)
let test_arrival_alloc () =
  let spec = { Spec.default with Spec.rate_per_s = 100_000. } in
  let a = Arrival.create spec in
  let words0 = Gc.minor_words () in
  let n = Arrival.count_until a ~now:1_000. in
  let words = Gc.minor_words () -. words0 in
  check "about 100k arrivals" true (n > 95_000 && n < 105_000);
  let per_arrival = words *. word_bytes /. float_of_int n in
  check
    (Printf.sprintf "%.4f B/arrival under 0.01" per_arrival)
    true (per_arrival < 0.01)

(* --- lane ring ------------------------------------------------------------- *)

let test_lane_fifo_wraparound () =
  let l = Lane.create ~capacity:4 in
  (* Push/pop past capacity to force the ring to wrap. *)
  let next_push = ref 0 and next_pop = ref 0 in
  for _ = 1 to 3 do
    while not (Lane.is_full l) do
      lane_push l ~seq:!next_push ~time:(float_of_int !next_push);
      incr next_push
    done;
    for _ = 1 to 2 do
      check_int "fifo order" !next_pop (Lane.front_seq l);
      check "time rides along" true
        (lane_front_time l = float_of_int !next_pop);
      Lane.pop l;
      incr next_pop
    done
  done;
  check_int "length accounts" (!next_push - !next_pop) (Lane.length l)

let test_lane_bounds_raise () =
  let l = Lane.create ~capacity:1 in
  lane_push l ~seq:0 ~time:0.;
  check "push on full raises" true
    (try
       lane_push l ~seq:1 ~time:0.;
       false
     with Invalid_argument _ -> true);
  Lane.pop l;
  check "pop on empty raises" true
    (try
       Lane.pop l;
       false
     with Invalid_argument _ -> true)

(* --- mempool: unit --------------------------------------------------------- *)

let test_verdict_progression () =
  let m = Mempool.create ~lanes:1 ~lane_capacity:2 ~backlog_capacity:1 in
  let sub seq = submit m ~client:0 ~seq ~time:0. in
  check "admitted" true (sub 0 = Mempool.Admitted);
  check "admitted" true (sub 1 = Mempool.Admitted);
  check "deferred when lane full" true (sub 2 = Mempool.Deferred);
  check "rejected when backlog full" true (sub 3 = Mempool.Rejected);
  let c = Mempool.counters m in
  check_int "submitted" 4 c.Mempool.submitted;
  check_int "admitted" 2 c.Mempool.admitted;
  check_int "deferred" 1 c.Mempool.deferred;
  check_int "rejected" 1 c.Mempool.rejected

let test_promotion_preserves_fifo_and_time () =
  let m = Mempool.create ~lanes:1 ~lane_capacity:1 ~backlog_capacity:2 in
  ignore (submit m ~client:0 ~seq:0 ~time:10.);
  ignore (submit m ~client:0 ~seq:1 ~time:20.);
  (* seq 1 sits in the backlog; draining seq 0 must promote it with its
     original submit time (deferral is charged to its latency). *)
  let drained = ref [] in
  let n =
    drain m ~count:2 ~f:(fun ~seq ~lane:_ ~time ->
        drained := (seq, time) :: !drained)
  in
  check_int "both drained" 2 n;
  check "fifo across promotion" true (List.rev !drained = [ (0, 10.); (1, 20.) ]);
  check_int "backlog empty" 0 (Mempool.backlogged m)

let test_drain_round_robin () =
  let m = Mempool.create ~lanes:4 ~lane_capacity:8 ~backlog_capacity:8 in
  (* Three commands in every lane (client c lands in lane c mod 4). *)
  for seq = 0 to 11 do
    ignore (submit m ~client:seq ~seq ~time:0.)
  done;
  let order = ref [] in
  ignore
    (drain m ~count:8 ~f:(fun ~seq:_ ~lane ~time:_ ->
         order := lane :: !order));
  check "round robin" true (List.rev !order = [ 0; 1; 2; 3; 0; 1; 2; 3 ]);
  let per_lane = Mempool.committed_per_lane m in
  Array.iter (fun c -> check_int "even spread" 2 c) per_lane

let test_drain_runs_dry () =
  let m = Mempool.create ~lanes:3 ~lane_capacity:4 ~backlog_capacity:4 in
  ignore (submit m ~client:0 ~seq:0 ~time:0.);
  check_int "short drain" 1
    (drain m ~count:10 ~f:(fun ~seq:_ ~lane:_ ~time:_ -> ()));
  check_int "dry drain" 0
    (drain m ~count:10 ~f:(fun ~seq:_ ~lane:_ ~time:_ -> ()))

(* --- mempool: model-based qcheck ------------------------------------------- *)

(* A naive reference mempool: per-lane FIFO lists plus a rotor, mirroring
   the documented semantics with none of the ring machinery. *)
module Model = struct
  type t = {
    lanes : (int * float) list ref array;
    backlog : (int * float) list ref array;
    lane_cap : int;
    backlog_cap : int;
    mutable rotor : int;
    mutable verdicts : Mempool.verdict list;
    mutable drained : int list;
  }

  let create ~lanes ~lane_capacity ~backlog_capacity =
    {
      lanes = Array.init lanes (fun _ -> ref []);
      backlog = Array.init lanes (fun _ -> ref []);
      lane_cap = lane_capacity;
      backlog_cap = backlog_capacity;
      rotor = 0;
      verdicts = [];
      drained = [];
    }

  let submit t ~client ~seq ~time =
    let l = client mod Array.length t.lanes in
    let v =
      if List.length !(t.lanes.(l)) < t.lane_cap then begin
        t.lanes.(l) := !(t.lanes.(l)) @ [ (seq, time) ];
        Mempool.Admitted
      end
      else if List.length !(t.backlog.(l)) < t.backlog_cap then begin
        t.backlog.(l) := !(t.backlog.(l)) @ [ (seq, time) ];
        Mempool.Deferred
      end
      else Mempool.Rejected
    in
    t.verdicts <- v :: t.verdicts;
    v

  let drain t ~count =
    let k = Array.length t.lanes in
    let drained = ref 0 and empty_scan = ref 0 in
    while !drained < count && !empty_scan < k do
      let l = t.rotor in
      t.rotor <- (t.rotor + 1) mod k;
      match !(t.lanes.(l)) with
      | [] -> incr empty_scan
      | (seq, _) :: rest ->
          empty_scan := 0;
          t.lanes.(l) := rest;
          (match !(t.backlog.(l)) with
          | b :: brest ->
              t.lanes.(l) := !(t.lanes.(l)) @ [ b ];
              t.backlog.(l) := brest
          | [] -> ());
          t.drained <- seq :: t.drained;
          incr drained
    done;
    !drained
end

type op = Submit of int | Drain of int

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (frequency
         [
           (4, map (fun c -> Submit c) (int_range 0 1_000));
           (1, map (fun n -> Drain n) (int_range 1 16));
         ]))

let ops_arb =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Submit c -> Printf.sprintf "S%d" c
             | Drain n -> Printf.sprintf "D%d" n)
           ops))

let test_model_equivalence =
  QCheck.Test.make ~name:"mempool matches naive model" ~count:200 ops_arb
    (fun ops ->
      let real = Mempool.create ~lanes:3 ~lane_capacity:4 ~backlog_capacity:2 in
      let model = Model.create ~lanes:3 ~lane_capacity:4 ~backlog_capacity:2 in
      let drained_real = ref [] in
      List.iteri
        (fun seq op ->
          match op with
          | Submit client ->
              let v = submit real ~client ~seq ~time:(float_of_int seq) in
              let v' = Model.submit model ~client ~seq ~time:(float_of_int seq) in
              if v <> v' then QCheck.Test.fail_reportf "verdict mismatch at %d" seq
          | Drain count ->
              let n =
                drain real ~count ~f:(fun ~seq ~lane:_ ~time:_ ->
                    drained_real := seq :: !drained_real)
              in
              let n' = Model.drain model ~count in
              if n <> n' then
                QCheck.Test.fail_reportf "drain count mismatch: %d vs %d" n n')
        ops;
      (* Same drain order, and conservation on the real structure. *)
      let c = Mempool.counters real in
      !drained_real = model.Model.drained
      && c.Mempool.submitted
         = c.Mempool.rejected + c.Mempool.committed + Mempool.pending real
           + Mempool.backlogged real)

let test_saturation_fairness =
  QCheck.Test.make ~name:"fair drain under saturation" ~count:100
    QCheck.(pair (int_range 2 8) (int_range 1 64))
    (fun (lanes, per_lane_batch) ->
      let m = Mempool.create ~lanes ~lane_capacity:64 ~backlog_capacity:64 in
      (* Saturate every lane completely, then drain a full sweep. *)
      let seq = ref 0 in
      let rec fill () =
        let v = submit m ~client:!seq ~seq:!seq ~time:0. in
        incr seq;
        if v <> Mempool.Rejected then fill ()
      in
      fill ();
      ignore
        (drain m ~count:(lanes * per_lane_batch)
           ~f:(fun ~seq:_ ~lane:_ ~time:_ -> ()));
      let per_lane = Mempool.committed_per_lane m in
      let mn = Array.fold_left min max_int per_lane in
      let mx = Array.fold_left max 0 per_lane in
      (* A saturated pool drains in exact round-robin: no lane is ever a
         full command ahead of another. *)
      mx - mn <= 1)

(* --- replay allocation ----------------------------------------------------- *)

(* Replaying committed batches allocates nothing per command: a leader cuts
   a batch per 10 ms view at 50k cmd/s (about 500 commands), and each
   batch commits 5 ms later.  Only the commit calls are measured, and
   their per-call constant (the boxed [~time]) amortizes to under 0.1 B
   per drained command.  While arrival times, lane times, the drain
   callback's time and the histogram's sum and maximum were boxed floats,
   this measured about 80 B per command. *)
let test_replay_alloc () =
  let spec =
    { Spec.default with Spec.rate_per_s = 50_000.; lanes = 8; max_batch = 512 }
  in
  let ing = Ingest.create ~spec ~n:7 ~view_ms:10. () in
  let parent = ref Block.genesis and drained = ref 0 in
  let words = ref 0. in
  for view = 1 to 400 do
    let now = float_of_int view *. 10. in
    let payload = Ingest.cut ing ~view ~parent:!parent ~now in
    let block = Block.create ~parent:!parent ~view ~proposer:0 ~payload in
    let w0 = Gc.minor_words () in
    let d = Ingest.on_quorum_commit ing ~payload ~time:(now +. 5.) in
    words := !words +. (Gc.minor_words () -. w0);
    drained := !drained + d;
    parent := block
  done;
  check "commands drained" true (!drained > 150_000);
  let per_cmd = !words *. word_bytes /. float_of_int !drained in
  check (Printf.sprintf "%.3f B/command under 0.1" per_cmd) true (per_cmd < 0.1)

(* --- end-to-end: harness runs ---------------------------------------------- *)

let run_with_clients ?(faults = "") ~protocol ~seed () =
  let spec =
    {
      Spec.default with
      Spec.clients = 50_000;
      rate_per_s = 15_000.;
      lanes = 4;
      lane_capacity = 128;
      backlog_capacity = 64;
      max_batch = 64;
    }
  in
  let schedule =
    if faults = "" then Bft_faults.Fault_schedule.empty
    else
      match Bft_faults.Fault_schedule.of_string faults with
      | Ok f -> f
      | Error e -> failwith e
  in
  let cfg =
    {
      (Config.local protocol ~n:4) with
      Config.clients = Some spec;
      duration_ms = 4_000.;
      seed;
      faults = schedule;
    }
  in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let dup = ref None in
  let out_of_order = ref None in
  let last_commit = ref neg_infinity in
  let r =
    Harness.run
      ~on_client_command:(fun ~seq ~lane:_ ~submit_ms ~commit_ms ->
        if Hashtbl.mem seen seq then dup := Some seq;
        Hashtbl.replace seen seq ();
        if commit_ms < !last_commit then out_of_order := Some seq;
        last_commit := commit_ms;
        if commit_ms < submit_ms then out_of_order := Some seq)
      cfg
  in
  let s = Option.get r.Harness.client_summary in
  (match !dup with
  | Some seq -> Alcotest.failf "command %d drawn twice" seq
  | None -> ());
  (match !out_of_order with
  | Some seq -> Alcotest.failf "command %d committed out of order" seq
  | None -> ());
  check_int "every draw observed" s.Ingest.committed (Hashtbl.length seen);
  check_int "conservation" s.Ingest.submitted
    (s.Ingest.rejected + s.Ingest.committed + s.Ingest.pending
   + s.Ingest.backlogged);
  check "traffic flowed" true (s.Ingest.committed > 0);
  s

let test_no_loss_happy () =
  ignore (run_with_clients ~protocol:Protocol_kind.Commit_moonshot ~seed:1 ())

let test_no_loss_across_crash () =
  (* Crash an honest node mid-run and recover it: the replicated mempool
     is derived from the committed chain, so no command may be lost or
     drawn twice even while a replica rebuilds. *)
  let s =
    run_with_clients ~faults:"crash@800:1;recover@2000:1"
      ~protocol:Protocol_kind.Commit_moonshot ~seed:3 ()
  in
  check "commits continued" true (s.Ingest.committed > 0)

let test_replay_properties =
  QCheck.Test.make ~name:"no loss/dup over random runs" ~count:8
    QCheck.(
      pair
        (oneofl
           [
             Protocol_kind.Simple_moonshot;
             Protocol_kind.Pipelined_moonshot;
             Protocol_kind.Commit_moonshot;
             Protocol_kind.Jolteon;
             Protocol_kind.Hotstuff;
           ])
        (int_range 1 1_000))
    (fun (protocol, seed) ->
      ignore (run_with_clients ~protocol ~seed ());
      true)

let test_sim_run_deterministic () =
  (* The whole pipeline is deterministic: identical configs produce
     identical summaries, batch for batch. *)
  let go () = run_with_clients ~protocol:Protocol_kind.Jolteon ~seed:11 () in
  let a = go () and b = go () in
  check "summaries identical" true (a = b)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "mempool"
    [
      ( "payload-batch",
        [
          Alcotest.test_case "round-trip" `Quick test_batch_roundtrip;
          Alcotest.test_case "bounds" `Quick test_batch_bounds;
          Alcotest.test_case "non-batch ids" `Quick test_non_batch_payloads;
        ] );
      ( "hist",
        [
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "merge/clear" `Quick test_hist_merge_and_clear;
          qc test_hist_matches_reference;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "views slots" `Quick test_arrival_views_slots;
          Alcotest.test_case "wall rate" `Quick test_arrival_wall_rate;
          Alcotest.test_case "client range" `Quick test_arrival_client_range;
          Alcotest.test_case "count_until allocates nothing" `Quick
            test_arrival_alloc;
        ] );
      ( "lane",
        [
          Alcotest.test_case "fifo + wraparound" `Quick test_lane_fifo_wraparound;
          Alcotest.test_case "bounds raise" `Quick test_lane_bounds_raise;
        ] );
      ( "mempool",
        [
          Alcotest.test_case "verdict progression" `Quick test_verdict_progression;
          Alcotest.test_case "promotion fifo" `Quick
            test_promotion_preserves_fifo_and_time;
          Alcotest.test_case "round robin" `Quick test_drain_round_robin;
          Alcotest.test_case "runs dry" `Quick test_drain_runs_dry;
          qc test_model_equivalence;
          qc test_saturation_fairness;
        ] );
      ( "replay",
        [
          Alcotest.test_case "no loss (happy)" `Quick test_no_loss_happy;
          Alcotest.test_case "no loss (crash/recover)" `Quick
            test_no_loss_across_crash;
          Alcotest.test_case "deterministic" `Quick test_sim_run_deterministic;
          Alcotest.test_case "on_quorum_commit allocates nothing" `Quick
            test_replay_alloc;
          qc test_replay_properties;
        ] );
    ]
