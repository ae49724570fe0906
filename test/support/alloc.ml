(* Allocation measurement for the tests that pin a hot path's cost. *)

(* Minor-heap words [f ()] allocates.  [Gc.minor_words] is unboxed and
   allocation-free, so the reading itself adds nothing. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The same in bytes, after one warm-up call so that first-use
   allocations (lazy values, table growth) are not charged. *)
let minor_bytes f =
  f ();
  minor_words f *. float_of_int (Sys.word_size / 8)

(* Every byte [f ()] allocates, blocks of more than 256 words included
   (they go straight to the major heap, where minor words miss them), after
   one warm-up call. *)
let bytes f =
  f ();
  Bft_obs.Alloc.measure f
