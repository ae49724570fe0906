open Bft_stats

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

let test_mean_and_sum () =
  check_float "mean" 2. (Descriptive.mean [ 1.; 2.; 3. ]);
  check_float "sum" 6. (Descriptive.sum [ 1.; 2.; 3. ]);
  check_float "singleton" 5. (Descriptive.mean [ 5. ])

let test_median_and_percentiles () =
  check_float "odd median" 3. (Descriptive.median [ 5.; 1.; 3. ]);
  check_float "even median interpolates" 2.5 (Descriptive.median [ 1.; 2.; 3.; 4. ]);
  check_float "p0 is min" 1. (Descriptive.percentile 0. [ 3.; 1.; 2. ]);
  check_float "p100 is max" 3. (Descriptive.percentile 100. [ 3.; 1.; 2. ]);
  check_float "p75 interpolates" 2.5 (Descriptive.percentile 75. [ 1.; 2.; 3. ])

let test_min_max () =
  check_float "min" (-2.) (Descriptive.min [ 3.; -2.; 7. ]);
  check_float "max" 7. (Descriptive.max [ 3.; -2.; 7. ])

let test_empty_rejected () =
  check "mean of empty raises" true
    (try ignore (Descriptive.mean []); false with Invalid_argument _ -> true);
  check "percentile bounds checked" true
    (try ignore (Descriptive.percentile 101. [ 1. ]); false
     with Invalid_argument _ -> true)

let test_iqr_keeps_normal () =
  let xs = [ 10.; 11.; 12.; 13.; 14.; 15. ] in
  let kept, removed = Outliers.iqr_filter_on ~value:Fun.id xs in
  check_int "nothing removed" 0 (List.length removed);
  check_int "all kept" 6 (List.length kept)

let test_iqr_removes_extreme () =
  let xs = [ 10.; 11.; 12.; 13.; 14.; 1000. ] in
  let kept, removed = Outliers.iqr_filter_on ~value:Fun.id xs in
  check "the spike is removed" true (removed = [ 1000. ]);
  check_int "five kept" 5 (List.length kept)

let test_iqr_small_samples_passthrough () =
  let kept, removed = Outliers.iqr_filter_on ~value:Fun.id [ 1.; 1000. ] in
  check "two points cannot be outliers" true (removed = [] && List.length kept = 2)

let test_iqr_on_records () =
  let records = [ ("a", 1.); ("b", 2.); ("c", 3.); ("d", 2.); ("e", 50.) ] in
  let kept, removed = Outliers.iqr_filter_on ~value:snd records in
  check "keyed filtering" true
    (List.map fst removed = [ "e" ] && List.length kept = 4)

let test_table_rendering () =
  let t = Table.create [ "proto"; "blocks" ] in
  Table.add_row t [ "PM"; "100" ];
  Table.add_row t [ "J"; "50" ];
  let buf = Buffer.create 64 in
  Table.print (Format.formatter_of_buffer buf) t;
  Format.pp_print_flush (Format.formatter_of_buffer buf) ();
  let s = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  check "headers present" true (contains "proto" && contains "PM" && contains "50")

let test_table_mismatch_rejected () =
  let t = Table.create [ "a"; "b" ] in
  check "row width enforced" true
    (try Table.add_row t [ "only-one" ]; false with Invalid_argument _ -> true)

let test_cells () =
  check "big floats no decimals" true (Table.cell 12345. = "12345");
  check "small floats 2 decimals" true (Table.cell 1.234 = "1.23")

let check_string = Alcotest.(check string)

let test_json_escapes () =
  check_string "quote, backslash and control characters"
    {|"a\"b\\c\u0001d\u000a"|}
    (Json.to_string (Json.String "a\"b\\c\001d\n"))

let test_json_scalars () =
  Alcotest.(check (list string))
    "fixed decimals, null, non-finite"
    [ "0.5375"; "56.9"; "9461"; "null"; "null"; "-3"; "false" ]
    (List.map Json.to_string
       Json.
         [
           Float (4, 0.5375);
           Float (1, 56.94);
           Float (0, 9461.3);
           Null;
           Float (2, Float.nan);
           Int (-3);
           Bool false;
         ])

let test_json_layout () =
  let v =
    Json.(
      Obj
        [
          ("schema", String "x/v1");
          ("provenance", Obj [ ("commit", String "abc"); ("domains", Int 2) ]);
          ( "runs",
            List
              [
                Obj [ ("a", Int 1); ("r", List [ Obj [ ("n", Null) ] ]) ];
                Obj [];
              ] );
          ("empty", List []);
          ("ok", Bool true);
        ])
  in
  check_string "outer two levels one item per line, deeper inline"
    "{\n\
    \  \"schema\": \"x/v1\",\n\
    \  \"provenance\": {\n\
    \    \"commit\": \"abc\",\n\
    \    \"domains\": 2\n\
    \  },\n\
    \  \"runs\": [\n\
    \    {\"a\": 1, \"r\": [{\"n\": null}]},\n\
    \    {}\n\
    \  ],\n\
    \  \"empty\": [],\n\
    \  \"ok\": true\n\
     }"
    (Json.to_string v)

let test_json_table () =
  let rows =
    Json.
      [
        [ ("p", String "SM"); ("x", Null); ("y", Float (1, 2.34)) ];
        [ ("p", String "J"); ("x", Int 7); ("y", Float (1, 10.)) ];
      ]
  in
  check_string "a column subset; null as -, strings unquoted"
    "p   y     x  \n--  ----  -  \nSM  2.3   -  \nJ   10.0  7  \n"
    (Format.asprintf "%a" Table.print (Json.table [ "p"; "y"; "x" ] rows));
  check "a missing column raises" true
    (try ignore (Json.table [ "z" ] rows); false with Not_found -> true)

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean/sum" `Quick test_mean_and_sum;
          Alcotest.test_case "median/percentiles" `Quick test_median_and_percentiles;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "outliers",
        [
          Alcotest.test_case "keeps normal data" `Quick test_iqr_keeps_normal;
          Alcotest.test_case "removes extremes" `Quick test_iqr_removes_extreme;
          Alcotest.test_case "small samples" `Quick test_iqr_small_samples_passthrough;
          Alcotest.test_case "keyed records" `Quick test_iqr_on_records;
        ] );
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "width enforced" `Quick test_table_mismatch_rejected;
          Alcotest.test_case "cell formats" `Quick test_cells;
          Alcotest.test_case "from JSON rows" `Quick test_json_table;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escapes" `Quick test_json_escapes;
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "layout" `Quick test_json_layout;
        ] );
    ]
