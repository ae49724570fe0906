open Bft_types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Hash ----------------------------------------------------------------- *)

let test_hash_deterministic () =
  check "same fields same hash" true
    (Hash.equal (Hash.of_fields [ 1L; 2L ]) (Hash.of_fields [ 1L; 2L ]));
  check "same string same hash" true
    (Hash.equal (Hash.of_string "abc") (Hash.of_string "abc"))

let test_hash_distinguishes () =
  check "different fields differ" false
    (Hash.equal (Hash.of_fields [ 1L; 2L ]) (Hash.of_fields [ 2L; 1L ]));
  check "order matters" false
    (Hash.equal (Hash.of_string "ab") (Hash.of_string "ba"));
  check "field split matters" false
    (Hash.equal (Hash.of_fields [ 1L ]) (Hash.of_fields [ 1L; 0L ]))

let test_hash_null () =
  check "null is not a digest of empty" false
    (Hash.equal Hash.null (Hash.of_fields []));
  check "null equals itself" true (Hash.equal Hash.null Hash.null)

let test_hash_hex () =
  check_int "hex is 16 chars" 16 (String.length (Hash.to_hex (Hash.of_string "x")))

let test_hash_compare_consistent () =
  let a = Hash.of_string "a" and b = Hash.of_string "b" in
  check "compare/equal agree" true (Hash.compare a a = 0 && Hash.equal a a);
  check "compare antisym" true (Hash.compare a b = -Hash.compare b a)

(* The per-byte FNV-1a fold [Hash.of_fields] computed before it became a
   single unboxed loop, kept verbatim as the reference. *)
module Reference = struct
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let mix_byte acc b =
    Int64.mul (Int64.logxor acc (Int64.of_int (b land 0xff))) fnv_prime

  let mix_int64 acc v =
    let rec go acc i =
      if i = 8 then acc
      else
        let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
        go (mix_byte acc b) (i + 1)
    in
    go acc 0

  let of_fields fields = List.fold_left mix_int64 fnv_offset fields
end

(* Ints across the whole range: small, negative, and with bit 62 set
   (what [Hash.to_int] makes of a digest whose top bits are set). *)
let int_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.int_range (-1000) 1000;
      QCheck.Gen.int;
      QCheck.Gen.map (fun v -> v lor (1 lsl 62)) QCheck.Gen.int;
      QCheck.Gen.oneofl [ 0; -1; max_int; min_int ];
    ]

let int64_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.ui64;
      QCheck.Gen.map Int64.neg QCheck.Gen.ui64;
      QCheck.Gen.map (fun v -> Int64.logor v Int64.min_int) QCheck.Gen.ui64;
      QCheck.Gen.map Int64.of_int int_gen;
    ]

let prop_of_fields_matches_reference =
  QCheck.Test.make ~count:500 ~name:"of_fields = per-byte FNV-1a fold"
    QCheck.(
      make
        ~print:(fun l -> String.concat ";" (List.map Int64.to_string l))
        Gen.(list_size (int_range 0 8) int64_gen))
    (fun fields ->
      Int64.equal
        (Hash.to_int64 (Hash.of_fields fields))
        (Reference.of_fields fields))

let prop_of_ints6_matches_reference =
  QCheck.Test.make ~count:500 ~name:"of_ints6 = fold over sign-extended ints"
    QCheck.(
      make
        ~print:(fun l -> String.concat ";" (List.map string_of_int l))
        Gen.(list_repeat 6 int_gen))
    (fun ints ->
      match ints with
      | [ a; b; c; d; e; f ] ->
          Int64.equal
            (Hash.to_int64 (Hash.of_ints6 a b c d e f))
            (Reference.of_fields (List.map Int64.of_int ints))
      | _ -> false)

(* Block hashes as recorded before the unboxed rewrite; every chain,
   trace and crossval case depends on them staying put. *)
let test_block_hashes_pinned () =
  let hex = Alcotest.(check string) in
  hex "genesis" "53d3efa3b1aa8f5d" (Hash.to_hex Block.genesis.Block.hash);
  let b1 =
    Block.create ~parent:Block.genesis ~view:1 ~proposer:1
      ~payload:(Payload.make ~id:7 ~size_bytes:180)
  in
  hex "fixed child of genesis" "3c5f6a2e161100fe" (Hash.to_hex b1.Block.hash);
  (* A parent digest goes in as [Int64.of_int (Hash.to_int parent)]: bit
     63 is dropped and bit 62 sign-extended into it. *)
  let with_parent p =
    Block.of_wire ~parent:(Hash.of_int64 p) ~view:5 ~height:3 ~proposer:2
      ~payload:(Payload.make ~id:(-9) ~size_bytes:0)
  in
  hex "parent 0x8000..01" "e880978313a87980"
    (Hash.to_hex (with_parent 0x8000_0000_0000_0001L).Block.hash);
  hex "parent 0xc000..01" "c76be305e7aa2140"
    (Hash.to_hex (with_parent 0xc000_0000_0000_0001L).Block.hash)

(* --- Payload --------------------------------------------------------------- *)

let test_payload_items () =
  check_int "180 bytes is one item" 1
    (Payload.item_count (Payload.make ~id:1 ~size_bytes:180));
  check_int "empty has no items" 0 (Payload.item_count (Payload.empty ~id:1));
  check_int "1.8kB is 10 items" 10
    (Payload.item_count (Payload.make ~id:1 ~size_bytes:1_800));
  check_int "partial item rounds down" 0
    (Payload.item_count (Payload.make ~id:1 ~size_bytes:179))

let test_payload_negative_rejected () =
  Alcotest.check_raises "negative size" (Invalid_argument "Payload.make: negative size")
    (fun () -> ignore (Payload.make ~id:1 ~size_bytes:(-1)))

let test_payload_equal () =
  check "same id+size equal" true
    (Payload.equal (Payload.make ~id:3 ~size_bytes:5) (Payload.make ~id:3 ~size_bytes:5));
  check "different id differs" false
    (Payload.equal (Payload.make ~id:3 ~size_bytes:5) (Payload.make ~id:4 ~size_bytes:5))

(* --- Block ------------------------------------------------------------------ *)

let test_genesis () =
  check_int "height 0" 0 Block.genesis.Block.height;
  check_int "view 0" 0 Block.genesis.Block.view;
  check "parent is null" true (Hash.equal Block.genesis.Block.parent Hash.null);
  check "is_genesis" true (Block.is_genesis Block.genesis)

let test_block_create () =
  let b = Test_support.Builders.block ~view:1 ~parent:Block.genesis () in
  check_int "height is parent + 1" 1 b.Block.height;
  check "extends genesis" true
    (Block.extends_hash b ~parent_hash:Block.genesis.Block.hash);
  check "not genesis" false (Block.is_genesis b)

let test_block_view_must_grow () =
  let b = Test_support.Builders.block ~view:5 ~parent:Block.genesis () in
  Alcotest.check_raises "child view must exceed parent's"
    (Invalid_argument "Block.create: view must exceed the parent's view")
    (fun () -> ignore (Test_support.Builders.block ~view:5 ~parent:b ()))

let test_block_hash_binds_fields () =
  let b1 = Test_support.Builders.block ~view:1 ~parent:Block.genesis () in
  let b2 = Test_support.Builders.block ~view:2 ~parent:Block.genesis () in
  let b3 =
    Test_support.Builders.block ~view:1 ~payload_id:99 ~parent:Block.genesis ()
  in
  check "view changes hash" false (Block.equal b1 b2);
  check "payload changes hash" false (Block.equal b1 b3);
  check "same everything same hash" true
    (Block.equal b1 (Test_support.Builders.block ~view:1 ~parent:Block.genesis ()))

let test_equivocation () =
  let a = Test_support.Builders.block ~view:3 ~parent:Block.genesis () in
  let parent = Test_support.Builders.block ~view:1 ~parent:Block.genesis () in
  let b = Test_support.Builders.block ~view:3 ~parent () in
  let c = Test_support.Builders.block ~view:3 ~payload_id:7 ~parent:Block.genesis () in
  check "same view different parent equivocates" true (Block.equivocates a b);
  check "same view different payload equivocates" true (Block.equivocates a c);
  check "identical blocks do not equivocate" false
    (Block.equivocates a
       (Test_support.Builders.block ~view:3 ~parent:Block.genesis ()));
  let later = Test_support.Builders.block ~view:4 ~parent:Block.genesis () in
  check "different views never equivocate" false (Block.equivocates a later)

(* --- Validator set ----------------------------------------------------------- *)

let test_quorums () =
  let vs = Validator_set.make 4 in
  check_int "f for n=4" 1 vs.Validator_set.f;
  check_int "quorum for n=4" 3 (Validator_set.quorum vs);
  check_int "weak quorum for n=4" 2 (Validator_set.weak_quorum vs);
  let vs100 = Validator_set.make 100 in
  check_int "f for n=100" 33 vs100.Validator_set.f;
  check_int "quorum for n=100" 67 (Validator_set.quorum vs100)

let test_quorum_intersection () =
  (* Any two quorums intersect in at least f + 1 nodes. *)
  List.iter
    (fun n ->
      let vs = Validator_set.make n in
      let q = Validator_set.quorum vs in
      check ("intersection for n=" ^ string_of_int n) true
        ((2 * q) - n >= vs.Validator_set.f + 1))
    [ 1; 2; 3; 4; 5; 7; 10; 13; 50; 100; 199; 200; 301 ]

(* --- Wire sizes ----------------------------------------------------------------- *)

let test_wire_sizes () =
  check "vote is a small message" true (Wire_size.vote < 300);
  check_int "block adds payload" (Wire_size.block_header + 1_000)
    (Wire_size.block ~payload_bytes:1_000);
  let c10 = Wire_size.certificate ~signers:10 in
  let c20 = Wire_size.certificate ~signers:20 in
  check "certificate linear in signers" true
    (c20 - c10 = 10 * (Wire_size.signature + Wire_size.node_id))

let () =
  Alcotest.run "types"
    [
      ( "hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "distinguishes" `Quick test_hash_distinguishes;
          Alcotest.test_case "null" `Quick test_hash_null;
          Alcotest.test_case "hex" `Quick test_hash_hex;
          Alcotest.test_case "compare" `Quick test_hash_compare_consistent;
          QCheck_alcotest.to_alcotest prop_of_fields_matches_reference;
          QCheck_alcotest.to_alcotest prop_of_ints6_matches_reference;
        ] );
      ( "payload",
        [
          Alcotest.test_case "item counting" `Quick test_payload_items;
          Alcotest.test_case "negative rejected" `Quick test_payload_negative_rejected;
          Alcotest.test_case "equality" `Quick test_payload_equal;
        ] );
      ( "block",
        [
          Alcotest.test_case "genesis" `Quick test_genesis;
          Alcotest.test_case "create" `Quick test_block_create;
          Alcotest.test_case "view must grow" `Quick test_block_view_must_grow;
          Alcotest.test_case "hash binds fields" `Quick test_block_hash_binds_fields;
          Alcotest.test_case "equivocation" `Quick test_equivocation;
          Alcotest.test_case "hashes pinned" `Quick test_block_hashes_pinned;
        ] );
      ( "validator-set",
        [
          Alcotest.test_case "quorums" `Quick test_quorums;
          Alcotest.test_case "intersection" `Quick test_quorum_intersection;
        ] );
      ("wire", [ Alcotest.test_case "sizes" `Quick test_wire_sizes ]);
    ]
