let require_nonempty = function
  | [] -> invalid_arg "Descriptive: empty sample"
  | xs -> xs

let sum xs = List.fold_left ( +. ) 0. (require_nonempty xs)
let mean xs = sum xs /. float_of_int (List.length xs)

let percentile p xs =
  if p < 0. || p > 100. then invalid_arg "Descriptive.percentile: p not in [0,100]";
  let sorted = List.sort Float.compare (require_nonempty xs) in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let median xs = percentile 50. xs
let min xs = List.fold_left Float.min Float.infinity (require_nonempty xs)
let max xs = List.fold_left Float.max Float.neg_infinity (require_nonempty xs)
