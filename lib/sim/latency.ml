type t =
  | Uniform of { base : float; jitter : float }
  | Matrix of { table : float array array; region_of : int -> int }

(* For the matrix model the table entry is the 90th percentile of observed
   latency.  We sample uniformly in [0.75 p90, 1.05 p90]: the 90th percentile
   of that distribution is 1.02 p90, i.e. within 2% of the table value. *)
let matrix_low = 0.75
let matrix_high = 1.05

(* [Rng.float rng bound], scaled here from the raw bits so the draw stays
   an unboxed float: a float returned by another module is boxed. *)
let[@inline] uniform rng bound =
  float_of_int (Rng.bits53 rng) /. 9007199254740992. *. bound

(* Each arm writes its sum straight into the slot, so no float leaves the
   function. *)
let add_sample t rng ~src ~dst times i =
  let at = times.(i) in
  match t with
  | Uniform { base; jitter } ->
      if jitter <= 0. then times.(i) <- at +. base
      else times.(i) <- at +. (base +. uniform rng jitter)
  | Matrix { table; region_of } ->
      let p90 = table.(region_of src).(region_of dst) in
      times.(i) <-
        at +. (p90 *. (matrix_low +. uniform rng (matrix_high -. matrix_low)))

let upper_bound = function
  | Uniform { base; jitter } -> base +. Float.max 0. jitter
  | Matrix { table; _ } ->
      let worst = ref 0. in
      Array.iter (fun row -> Array.iter (fun v -> worst := Float.max !worst v) row) table;
      !worst *. matrix_high
