let k = 1.5

let iqr_filter_on ~value xs =
  match xs with
  | [] | [ _ ] | [ _; _ ] -> (xs, [])
  | _ ->
      let vs = List.map value xs in
      let q1 = Descriptive.percentile 25. vs in
      let q3 = Descriptive.percentile 75. vs in
      let iqr = q3 -. q1 in
      let lo = q1 -. (k *. iqr) and hi = q3 +. (k *. iqr) in
      List.partition
        (fun x ->
          let v = value x in
          v >= lo && v <= hi)
        xs
