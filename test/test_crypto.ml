open Bft_crypto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A key's listed signers and completeness, read through
   [Accumulator.fold]. *)
let acc_entry acc key =
  Accumulator.fold
    (fun k ~signers ~complete e -> if k = key then (signers, complete) else e)
    acc ([], false)

let acc_signers acc key = fst (acc_entry acc key)
let acc_count acc key = List.length (acc_signers acc key)
let acc_complete acc key = snd (acc_entry acc key)

(* --- Signer set --------------------------------------------------------------- *)

let test_signer_set_basic () =
  let s = Signer_set.create ~n:10 in
  check_int "starts empty" 0 (Signer_set.count s);
  check "first add is new" true (Signer_set.add s 3);
  check "second add is duplicate" false (Signer_set.add s 3);
  check_int "count ignores duplicates" 1 (Signer_set.count s);
  check "lists the member" true (Signer_set.to_list s = [ 3 ])

let test_signer_set_bounds () =
  let s = Signer_set.create ~n:8 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Signer_set: signer out of range") (fun () ->
      ignore (Signer_set.add s 8));
  Alcotest.check_raises "negative"
    (Invalid_argument "Signer_set: signer out of range") (fun () ->
      ignore (Signer_set.add s (-1)))

let test_signer_set_full_and_list () =
  let n = 67 in
  let s = Signer_set.create ~n in
  for i = 0 to n - 1 do
    ignore (Signer_set.add s i)
  done;
  check_int "all added" n (Signer_set.count s);
  check "list is sorted identity" true
    (Signer_set.to_list s = List.init n (fun i -> i))

(* --- Accumulator ---------------------------------------------------------------- *)

(* After the threshold, the key is complete and lists no signers, and
   every later contribution, a repeated signer's included, is
   [Already_complete]. *)
let test_accumulator_threshold_fires_once () =
  let acc = Accumulator.create ~n:4 ~threshold:3 in
  let key = 7 in
  check "1st added" true (Accumulator.add acc key ~signer:0 = Accumulator.Added 1);
  check "2nd added" true (Accumulator.add acc key ~signer:1 = Accumulator.Added 2);
  check "3rd reaches the threshold" true
    (Accumulator.add acc key ~signer:2 = Accumulator.Threshold_reached);
  check "complete, no signers listed" true
    (acc_entry acc key = ([], true));
  check "4th is past quorum" true
    (Accumulator.add acc key ~signer:3 = Accumulator.Already_complete);
  check "a repeated signer too" true
    (Accumulator.add acc key ~signer:0 = Accumulator.Already_complete);
  check "still complete" true (acc_complete acc key)

let test_accumulator_dedup () =
  let acc = Accumulator.create ~n:4 ~threshold:3 in
  ignore (Accumulator.add acc 1 ~signer:0);
  check "same signer is duplicate" true
    (Accumulator.add acc 1 ~signer:0 = Accumulator.Duplicate);
  check_int "count unchanged" 1 (acc_count acc 1)

let test_accumulator_keys_independent () =
  let acc = Accumulator.create ~n:4 ~threshold:2 in
  ignore (Accumulator.add acc 1 ~signer:0);
  ignore (Accumulator.add acc 2 ~signer:1);
  check_int "1 has one" 1 (acc_count acc 1);
  check_int "2 has one" 1 (acc_count acc 2);
  check "neither complete" true
    ((not (acc_complete acc 1)) && not (acc_complete acc 2))

let test_accumulator_threshold_one () =
  let acc = Accumulator.create ~n:4 ~threshold:1 in
  check "single-signer threshold fires immediately" true
    (Accumulator.add acc 42 ~signer:2 = Accumulator.Threshold_reached
    && acc_complete acc 42);
  check "bad threshold rejected" true
    (try
       ignore (Accumulator.create ~n:4 ~threshold:0);
       false
     with Invalid_argument _ -> true)

let test_accumulator_quorum_semantics () =
  (* A 2f+1 threshold over n = 3f+1 signers cannot be met by f Byzantine
     plus f honest contributions. *)
  let n = 10 in
  let f = 3 in
  let acc = Accumulator.create ~n ~threshold:((2 * f) + 1) in
  for i = 0 to (2 * f) - 1 do
    match Accumulator.add acc 0 ~signer:i with
    | Accumulator.Added _ -> ()
    | _ -> Alcotest.fail "should still be accumulating"
  done;
  check "one short of quorum" false (acc_complete acc 0)


let test_accumulator_unreachable_threshold () =
  (* Threshold above n can never fire, no matter how many contribute. *)
  let acc = Accumulator.create ~n:4 ~threshold:5 in
  for signer = 0 to 3 do
    (match Accumulator.add acc 0 ~signer with
    | Accumulator.Threshold_reached -> Alcotest.fail "fired impossibly"
    | _ -> ())
  done;
  check "never complete" false (acc_complete acc 0)

(* Every signer contributes to one key.  A key that reaches its threshold
   closes its tally: it reads complete without signers, every later
   contribution is [Already_complete], and the next new key, which takes
   the closed tally's array, starts from nothing.  With the threshold above
   n the filled key stays open, lists every signer and answers [Duplicate].
   n = 40 spans two signer words. *)
let test_accumulator_filled_key () =
  List.iter
    (fun (n, threshold) ->
      let label = Printf.sprintf "n=%d threshold=%d: %s" n threshold in
      let acc = Accumulator.create ~n ~threshold in
      let full = 1 and next = 2 in
      for signer = n - 1 downto 0 do
        ignore (Accumulator.add acc full ~signer)
      done;
      let complete = n >= threshold in
      let listed = if complete then [] else List.init n Fun.id in
      check (label "complete") complete (acc_complete acc full);
      check (label "its listed signers") true (acc_signers acc full = listed);
      let later =
        if complete then Accumulator.Already_complete else Accumulator.Duplicate
      in
      for signer = 0 to n - 1 do
        check (label "later contribution") true
          (Accumulator.add acc full ~signer = later)
      done;
      check (label "a new key starts empty") true
        (Accumulator.add acc next ~signer:1 = Accumulator.Added 1);
      check (label "with its one signer") true (acc_signers acc next = [ 1 ]);
      check (label "the filled key unchanged") true
        (acc_signers acc full = listed))
    [ (4, 3); (40, 27); (4, 5) ]

(* The ring remembers the last [ring_size] completions: a key pushed out
   of it opens a fresh tally (the late-vote case [accumulator.mli]
   argues is inert), one still in it answers [Already_complete]. *)
let test_accumulator_ring () =
  let acc = Accumulator.create ~n:4 ~threshold:3 in
  let complete key =
    for signer = 0 to 2 do
      ignore (Accumulator.add acc key ~signer)
    done
  in
  for key = 0 to Accumulator.ring_size do
    complete key
  done;
  check "the newest ring key" true
    (Accumulator.add acc Accumulator.ring_size ~signer:3
    = Accumulator.Already_complete);
  check "the oldest ring key" true
    (Accumulator.add acc 1 ~signer:3 = Accumulator.Already_complete);
  check "the evicted key opens a fresh tally" true
    (Accumulator.add acc 0 ~signer:3 = Accumulator.Added 1);
  check "listed open" true (acc_entry acc 0 = ([ 3 ], false))

(* --- certificate quorum formation (property) --------------------------------- *)

(* Random vote multisets with duplicate and conflicting signers folded into a
   fresh aggregation core: a certificate must be returned exactly when a
   (kind, block) key's distinct-signer count first reaches the quorum, carry
   that count, and never fire again — and a duplicate vote must never
   displace or mask a distinct signer.  The fold below is the reference
   model: per-key distinct-signer sets, nothing else. *)
let prop_cert_quorum_formation =
  let open Moonshot in
  let block_of = function
    | `A ->
        Test_support.Builders.block ~view:1 ~payload_id:1
          ~parent:Bft_types.Block.genesis ()
    | `B ->
        (* Same view, different payload: the conflicting (equivocating)
           twin; it accumulates in its own key. *)
        Test_support.Builders.block ~view:1 ~payload_id:2
          ~parent:Bft_types.Block.genesis ()
  in
  let vote_gen =
    QCheck.Gen.(
      list_size (int_range 0 24)
        (triple (int_range 0 3) (oneofl [ `A; `B ])
           (oneofl [ Vote_kind.Normal; Vote_kind.Opt ])))
  in
  let print_votes votes =
    String.concat "; "
      (List.map
         (fun (s, c, k) ->
           Printf.sprintf "%d:%s:%s" s
             (match c with `A -> "A" | `B -> "B")
             (match k with Vote_kind.Normal -> "n" | _ -> "o"))
         votes)
  in
  QCheck.Test.make ~count:300
    ~name:"certificate forms exactly at quorum under duplicate/conflicting signers"
    (QCheck.make ~print:print_votes vote_gen)
    (fun votes ->
      let _mock, env = Test_support.Mock_env.create ~n:4 ~id:0 () in
      let core = Node_core.create env in
      let quorum = 3 in
      let seen : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
      List.for_all
        (fun (signer, choice, kind) ->
          let block = block_of choice in
          let key =
            (Vote_kind.to_tag kind, match choice with `A -> 0 | `B -> 1)
          in
          let signers = Option.value ~default:[] (Hashtbl.find_opt seen key) in
          let fresh = not (List.mem signer signers) in
          if fresh then Hashtbl.replace seen key (signer :: signers);
          let fires = fresh && List.length signers + 1 = quorum in
          match Node_core.add_vote core ~signer ~kind block with
          | Some cert ->
              fires && cert.Cert.view = 1
              && cert.Cert.signers = quorum
              && cert.Cert.kind = kind
              && Bft_types.Block.equal cert.Cert.block block
          | None -> not fires)
        votes)

let () =
  Alcotest.run "crypto"
    [
      ( "signer-set",
        [
          Alcotest.test_case "basics" `Quick test_signer_set_basic;
          Alcotest.test_case "bounds" `Quick test_signer_set_bounds;
          Alcotest.test_case "full set + listing" `Quick test_signer_set_full_and_list;
        ] );
      ( "accumulator",
        [
          Alcotest.test_case "threshold fires once" `Quick
            test_accumulator_threshold_fires_once;
          Alcotest.test_case "dedup" `Quick test_accumulator_dedup;
          Alcotest.test_case "independent keys" `Quick test_accumulator_keys_independent;
          Alcotest.test_case "threshold one" `Quick test_accumulator_threshold_one;
          Alcotest.test_case "quorum semantics" `Quick test_accumulator_quorum_semantics;
          Alcotest.test_case "unreachable threshold" `Quick
            test_accumulator_unreachable_threshold;
          Alcotest.test_case "filled key" `Quick test_accumulator_filled_key;
          Alcotest.test_case "ring of completed keys" `Quick
            test_accumulator_ring;
        ] );
      ( "cert-quorum",
        [ QCheck_alcotest.to_alcotest prop_cert_quorum_formation ] );
    ]
