type region = Us_east_1 | Us_west_1 | Eu_north_1 | Ap_northeast_1 | Ap_southeast_2

let all = [ Us_east_1; Us_west_1; Eu_north_1; Ap_northeast_1; Ap_southeast_2 ]
let count = 5

let name = function
  | Us_east_1 -> "us-east-1"
  | Us_west_1 -> "us-west-1"
  | Eu_north_1 -> "eu-north-1"
  | Ap_northeast_1 -> "ap-northeast-1"
  | Ap_southeast_2 -> "ap-southeast-2"

let index = function
  | Us_east_1 -> 0
  | Us_west_1 -> 1
  | Eu_north_1 -> 2
  | Ap_northeast_1 -> 3
  | Ap_southeast_2 -> 4

(* Table II of the paper: observed 90th-percentile latencies (ms), source
   rows, destination columns, in the order of [all]. *)
let table =
  [|
    [| 5.23; 61.87; 113.78; 167.6; 197.42 |];
    [| 62.88; 3.69; 172.17; 109.89; 141.54 |];
    [| 114.09; 173.31; 5.48; 248.67; 271.68 |];
    [| 168.04; 109.94; 251.63; 5.99; 111.67 |];
    [| 199.54; 146.06; 272.31; 112.11; 4.53 |];
  |]

let latency_ms ~src ~dst = table.(index src).(index dst)

let latency_model () =
  Bft_sim.Latency.Matrix
    { table; region_of = (fun node -> node mod count) }

let bandwidth_bps = 10e9

let print_table ppf =
  Format.fprintf ppf "%-16s" "Source\\Dest";
  List.iter (fun r -> Format.fprintf ppf "%-16s" (name r)) all;
  Format.fprintf ppf "@.";
  List.iter
    (fun src ->
      Format.fprintf ppf "%-16s" (name src);
      List.iter
        (fun dst -> Format.fprintf ppf "%-16.2f" (latency_ms ~src ~dst))
        all;
      Format.fprintf ppf "@.")
    all
