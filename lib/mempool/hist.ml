let buckets = 400
let base_v = 0.05
let log_growth = log 1.07

(* Upper bound of bucket [i]; bucket 0 covers [0, base_v]. *)
let bounds =
  Array.init buckets (fun i -> base_v *. exp (float_of_int i *. log_growth))

(* The sum and the maximum live in a float array, [acc.(sum_slot)] and
   [acc.(max_slot)]: mutable float fields of this mixed record would be
   stored boxed, one allocation per update. *)
type t = { counts : int array; mutable total : int; acc : float array }

let sum_slot = 0
let max_slot = 1
let create () = { counts = Array.make buckets 0; total = 0; acc = [| 0.; 0. |] }

(* Inlined into [add_from], so [v] is never boxed. *)
let[@inline] index_of v =
  if v <= base_v then 0
  else
    let i = 1 + int_of_float (log (v /. base_v) /. log_growth) in
    if i >= buckets then buckets - 1 else i

let add_from t times i =
  let v = times.(i) in
  let v = if v < 0. then 0. else v in
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.acc.(sum_slot) <- t.acc.(sum_slot) +. v;
  if v > t.acc.(max_slot) then t.acc.(max_slot) <- v

let count t = t.total
let max_value t = t.acc.(max_slot)
let mean t =
  if t.total = 0 then 0. else t.acc.(sum_slot) /. float_of_int t.total

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
    (* Report the bucket's upper bound, capped by the true maximum so the
       tail quantiles cannot exceed an observed value. *)
    let b = bounds.(!found) in
    if b > t.acc.(max_slot) then t.acc.(max_slot) else b
  end
