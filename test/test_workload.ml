open Bft_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Regions ------------------------------------------------------------------ *)

let test_table_shape () =
  check_int "five regions" 5 Regions.count;
  check_int "five rows" 5 (Array.length Regions.table);
  Array.iter (fun row -> check_int "five columns" 5 (Array.length row)) Regions.table

(* Rows and columns in Table II order: us-east-1 is 0, eu-north-1 2,
   ap-southeast-2 4. *)
let us_east_1 = 0
let eu_north_1 = 2
let ap_southeast_2 = 4

let test_table_values () =
  let latency_ms ~src ~dst = Regions.table.(src).(dst) in
  let all = List.init Regions.count Fun.id in
  check "diagonal is intra-region (small)" true
    (List.for_all (fun r -> latency_ms ~src:r ~dst:r < 7.) all);
  check "eu-north to ap-southeast is the worst link" true
    (latency_ms ~src:ap_southeast_2 ~dst:eu_north_1 = 272.31);
  check "roughly symmetric" true
    (List.for_all
       (fun src ->
         List.for_all
           (fun dst ->
             Float.abs (latency_ms ~src ~dst -. latency_ms ~src:dst ~dst:src)
             < 6.)
           all)
       all)

let test_round_robin_assignment () =
  match Regions.latency_model () with
  | Bft_sim.Latency.Matrix { region_of; _ } ->
      check "node 0 in us-east" true (region_of 0 = us_east_1);
      check "node 5 wraps" true (region_of 5 = us_east_1);
      check "node 7 in eu" true (region_of 7 = eu_north_1)
  | _ -> Alcotest.fail "the WAN model is a region matrix"

let test_latency_model_bounds () =
  let m = Regions.latency_model () in
  check "upper bound below the paper's 500ms delta" true
    (Bft_sim.Latency.upper_bound m < 500.)

(* --- Schedules -------------------------------------------------------------------- *)

(* The leader arrangement, one cycle of [Schedules.leader_of]. *)
let arrangement s ~n ~f' =
  let leader = Schedules.leader_of s ~n ~f' in
  Array.init n (fun i -> leader (i + 1))

let byzantine_ids ~n ~f' = List.filter (Schedules.is_byzantine ~n ~f') (List.init n Fun.id)

let test_byzantine_ids_are_tail () =
  check "f'=2 of 7" true (byzantine_ids ~n:7 ~f':2 = [ 5; 6 ]);
  check "f'=0 empty" true (byzantine_ids ~n:7 ~f':0 = []);
  check "is_byzantine matches" true
    (Schedules.is_byzantine ~n:7 ~f':2 5
    && Schedules.is_byzantine ~n:7 ~f':2 6
    && not (Schedules.is_byzantine ~n:7 ~f':2 4))

let test_f_prime_bounds () =
  check "too many byzantine rejected" true
    (try ignore (Schedules.is_byzantine ~n:7 ~f':3 0); false
     with Invalid_argument _ -> true)

let is_perm n arr =
  let sorted = List.sort compare (Array.to_list arr) in
  sorted = List.init n (fun i -> i)

let test_arrangements_are_permutations () =
  List.iter
    (fun s ->
      check (Schedules.name s ^ " is a permutation") true
        (is_perm 100 (arrangement s ~n:100 ~f':33)))
    Schedules.all

let test_best_case_shape () =
  let arr = arrangement Schedules.Best_case ~n:100 ~f':33 in
  let honest_prefix = Array.sub arr 0 67 in
  check "honest leaders first" true
    (Array.for_all (fun i -> not (Schedules.is_byzantine ~n:100 ~f':33 i)) honest_prefix);
  check "byzantine tail" true
    (Array.for_all
       (fun i -> Schedules.is_byzantine ~n:100 ~f':33 i)
       (Array.sub arr 67 33))

let test_wm_alternates () =
  let arr = arrangement Schedules.Worst_moonshot ~n:100 ~f':33 in
  let byz i = Schedules.is_byzantine ~n:100 ~f':33 arr.(i) in
  (* First 2f' = 66 views alternate honest, byzantine. *)
  let ok = ref true in
  for i = 0 to 65 do
    let expected = i mod 2 = 1 in
    if byz i <> expected then ok := false
  done;
  check "h,b alternation for 2f' views" true !ok;
  let tail_ok = ref true in
  for i = 66 to 99 do
    if byz i then tail_ok := false
  done;
  check "honest tail" true !tail_ok

let test_wj_two_honest_then_byz () =
  let arr = arrangement Schedules.Worst_jolteon ~n:100 ~f':33 in
  let byz i = Schedules.is_byzantine ~n:100 ~f':33 arr.(i) in
  let ok = ref true in
  for i = 0 to 98 do
    let expected = i mod 3 = 2 in
    if byz i <> expected then ok := false
  done;
  check "(h,h,b) repeated for 3f' views" true !ok;
  check "final leader honest" true (not (byz 99))

let test_leader_of_cycles () =
  let leader = Schedules.leader_of Schedules.Worst_jolteon ~n:100 ~f':33 in
  check "view 1 and view 101 coincide" true (leader 1 = leader 101);
  check "1-based indexing" true (leader 1 = 0 && leader 3 = 67)


let test_schedule_name_roundtrip () =
  List.iter
    (fun s ->
      check (Schedules.name s) true (Schedules.of_name (Schedules.name s) = Some s))
    Schedules.all;
  check "unknown schedule" true (Schedules.of_name "zigzag" = None)

let test_schedules_degenerate_sizes () =
  (* n = 1 and f' = 0: every schedule is the identity. *)
  List.iter
    (fun s ->
      check (Schedules.name s ^ " n=1") true
        (arrangement s ~n:1 ~f':0 = [| 0 |]))
    Schedules.all;
  (* Smallest fault-tolerant size. *)
  List.iter
    (fun s ->
      let arr = arrangement s ~n:4 ~f':1 in
      check (Schedules.name s ^ " n=4 perm") true
        (List.sort compare (Array.to_list arr) = [ 0; 1; 2; 3 ]))
    Schedules.all

let test_wm_wj_differ () =
  check "WM and WJ interleave differently" true
    (arrangement Schedules.Worst_moonshot ~n:100 ~f':33
    <> arrangement Schedules.Worst_jolteon ~n:100 ~f':33)

(* --- Payload profiles -------------------------------------------------------------- *)

let test_payload_sizes_are_item_multiples () =
  check "happy-path sizes divisible by 180" true
    (List.for_all
       (fun s -> s mod Bft_types.Payload.item_size = 0)
       Payload_profile.happy_path_sizes);
  check "saturation extends happy path" true
    (List.for_all
       (fun s -> List.mem s Payload_profile.saturation_sizes)
       [ 0; 1_800; 18_000; 180_000; 1_800_000 ])

let test_labels () =
  check "empty" true (Payload_profile.label 0 = "empty");
  check "1.8kB" true (Payload_profile.label 1_800 = "1.8kB");
  check "18kB" true (Payload_profile.label 18_000 = "18kB");
  check "1.8MB" true (Payload_profile.label 1_800_000 = "1.8MB");
  check "9MB" true (Payload_profile.label 9_000_000 = "9MB")

let () =
  Alcotest.run "workload"
    [
      ( "regions",
        [
          Alcotest.test_case "table shape" `Quick test_table_shape;
          Alcotest.test_case "table values" `Quick test_table_values;
          Alcotest.test_case "round robin" `Quick test_round_robin_assignment;
          Alcotest.test_case "latency bounds" `Quick test_latency_model_bounds;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "byzantine tail" `Quick test_byzantine_ids_are_tail;
          Alcotest.test_case "f' bounds" `Quick test_f_prime_bounds;
          Alcotest.test_case "permutations" `Quick test_arrangements_are_permutations;
          Alcotest.test_case "B shape" `Quick test_best_case_shape;
          Alcotest.test_case "WM alternates" `Quick test_wm_alternates;
          Alcotest.test_case "WJ pattern" `Quick test_wj_two_honest_then_byz;
          Alcotest.test_case "leader cycles" `Quick test_leader_of_cycles;
          Alcotest.test_case "name roundtrip" `Quick test_schedule_name_roundtrip;
          Alcotest.test_case "degenerate sizes" `Quick test_schedules_degenerate_sizes;
          Alcotest.test_case "WM vs WJ" `Quick test_wm_wj_differ;
        ] );
      ( "payloads",
        [
          Alcotest.test_case "item multiples" `Quick test_payload_sizes_are_item_multiples;
          Alcotest.test_case "labels" `Quick test_labels;
        ] );
    ]
