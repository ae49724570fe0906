open Bft_types

(* Entries in arrival order, in parallel arrays: [items.(i)] waits for view
   [views.(i)].  A node buffers a handful of proposals, so linear scans
   beat a table, and nothing allocates but the arrays' doubling.  [dummy]
   fills free slots, so that dropped items are not kept alive. *)
type 'a t = {
  mutable views : int array;
  mutable items : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { views = Array.make 8 0; items = Array.make 8 dummy; len = 0; dummy }

let add t ~view item =
  if t.len = Array.length t.views then begin
    t.views <- Array.append t.views (Array.make t.len 0);
    t.items <- Array.append t.items (Array.make t.len t.dummy)
  end;
  t.views.(t.len) <- view;
  t.items.(t.len) <- item;
  t.len <- t.len + 1

(* The index of [view]'s [k]-th entry (from 0) at or after [i], or -1. *)
let rec nth t view k i =
  if i >= t.len then -1
  else if t.views.(i) <> view then nth t view k (i + 1)
  else if k = 0 then i
  else nth t view (k - 1) (i + 1)

(* By rank, not by index: [f] may re-enter the node and add or drop
   entries.  What it adds for [view] ranks after the [upto] entries the
   walk began with, and dropping [view] drops them all, ending the walk. *)
let rec iter_from t view f ctx k ~upto =
  let i = if k < upto then nth t view k 0 else -1 in
  if i >= 0 then begin
    f ctx t.items.(i);
    iter_from t view f ctx (k + 1) ~upto
  end

let rec count t view i =
  if i >= t.len then 0 else Bool.to_int (t.views.(i) = view) + count t view (i + 1)

let iter_view t view f ctx = iter_from t view f ctx 0 ~upto:(count t view 0)

let drop_below t view =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    if t.views.(i) >= view then begin
      t.views.(!kept) <- t.views.(i);
      t.items.(!kept) <- t.items.(i);
      incr kept
    end
  done;
  Array.fill t.items !kept (t.len - !kept) t.dummy;
  t.len <- !kept

(* Each view's items hashed newest first: the protocols' [state_hash]
   values, and so the model checker's matched states and swarm
   fingerprints, depend on this order. *)
let digest item_digest t =
  let acc = ref 0L in
  for i = 0 to t.len - 1 do
    let view = t.views.(i) in
    if nth t view 0 0 = i then begin
      let items = ref [] in
      for j = i to t.len - 1 do
        if t.views.(j) = view then items := item_digest t.items.(j) :: !items
      done;
      let d = Hash.of_fields (Int64.of_int view :: !items) in
      acc := Int64.add !acc (Hash.to_int64 d)
    end
  done;
  !acc
