let word_bytes = float_of_int (Sys.word_size / 8)

let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. word_bytes

(* What a reading allocates between two others: the [Gc.counters] triple
   of the later one and the boxed result of the earlier one. *)
let reading =
  let a = allocated_bytes () in
  allocated_bytes () -. a

let measure f =
  let a = allocated_bytes () in
  f ();
  allocated_bytes () -. a -. reading
