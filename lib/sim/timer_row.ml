type 'h t = {
  action : unit -> unit;
  mutable seq : int;  (* the current arming's *)
  mutable armed : bool;  (* neither fired nor cancelled *)
  mutable cancel : unit -> unit;  (* disarms the current arming; set once *)
  mutable handle : 'h;
}

let unset () = ()

(* The record first, then its thunk: a [let rec] record with the thunk
   inside cost 16 words, this 10 (6 for the record, 4 for the thunk). *)
let create handle action =
  let tm = { action; seq = -1; armed = false; cancel = unset; handle } in
  tm.cancel <- (fun () -> tm.armed <- false);
  tm

let handle tm = tm.handle
let set_handle tm h = tm.handle <- h
let cancel tm = tm.cancel
let armed tm = tm.armed

let arm tm q times i v =
  let seq = Event_queue.take_seq q in
  tm.seq <- seq;
  tm.armed <- true;
  Event_queue.push_seq_from q times i ~seq v

let hold tm = tm.armed <- true
let live tm seq = tm.armed && tm.seq = seq

let fire tm =
  tm.armed <- false;
  tm.action ()

let slots = 4

(* A row lists its records newest first; [[||]] until its first. *)
type 'h rows = 'h t array array

let rows n = Array.make n [||]

(* [x] in front of [row]'s newest [slots - 1] entries: the oldest drops
   out.  Only a row's first entry allocates. *)
let push row x =
  if Array.length row = 0 then Array.make slots x
  else begin
    Array.blit row 0 row 1 (slots - 1);
    Array.unsafe_set row 0 x;
    row
  end

(* A loop over the row, not a search taking a predicate: a closure would
   be allocated on every arming. *)
let claim rows i action h =
  let row = rows.(i) in
  let len = Array.length row in
  let k = ref 0 in
  while
    !k < len
    &&
    let tm = Array.unsafe_get row !k in
    tm.armed || tm.action != action
  do
    incr k
  done;
  if !k < len then Array.unsafe_get row !k
  else begin
    let tm = create h action in
    rows.(i) <- push row tm;
    tm
  end

let drop rows i = rows.(i) <- [||]

(* The memo is one array, [[||]] until the first callback: each key at an
   even index with its wrapper after it, newest first. *)
let wrap_once wrap =
  let memo = ref [||] in
  fun f ->
    let m = !memo in
    let len = Array.length m in
    let k = ref 0 in
    while !k < len && Array.unsafe_get m !k != f do
      k := !k + 2
    done;
    if !k < len then Array.unsafe_get m (!k + 1)
    else begin
      let g = wrap f in
      if len = 0 then begin
        let m = Array.make (2 * slots) f in
        for k = 0 to slots - 1 do
          m.((2 * k) + 1) <- g
        done;
        memo := m
      end
      else begin
        Array.blit m 0 m 2 (len - 2);
        m.(0) <- f;
        m.(1) <- g
      end;
      g
    end
