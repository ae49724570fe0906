(* Struct-of-arrays binary min-heap keyed by (time, sequence number).  The
   sequence number breaks ties so same-time events are FIFO.

   Times live in an unboxed [float array] and sequence numbers in an
   [int array], so the heap's comparisons and swaps touch flat memory and a
   [push_from] allocates nothing once capacity is reached — no per-event
   cell record, no [option] boxing.  Times enter and leave through float
   array slots ([push_from], [min_time_into]) because a float crossing a
   module boundary is boxed under [-opaque]; [push] wraps its time in a
   one-slot array and is kept for tests.  The value
   array is created lazily on the first push (there is no "dummy" value
   to fill it with before that).

   An entry may stand for a sorted sequence of events that share one heap
   slot (the engine's fan-out runs and CPU lanes).  Such an entry takes its
   events' sequence numbers with [take_seq] as they are made, is pushed
   keyed by its first one ([push_seq_from]), and is re-keyed in place by
   [replace_top_from] as its owner consumes it from the top.  Keys are
   unique, so the pops of all entries interleave exactly as if each event
   had been pushed on its own.

   Both sifts move a "hole": the displaced element sits in locals while
   ancestors/descendants shift one slot each and is written back exactly
   once — half the memory traffic of swap-based sifting, which matters with
   the element spread over three arrays.  Indices are bounded by [t.size],
   which never exceeds any array's capacity, so the sift accesses are
   unchecked.  (A 4-ary layout was measured and lost to the binary one at
   simulation-typical queue sizes.)

   Popped slots are not cleared: the element moved into the root is the
   same one the vacated slot still references, so at most one value (the
   last element popped from a fully drained queue) is kept alive until the
   next push overwrites it. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;  (* [||] until the first push. *)
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    values = [||];
    size = 0;
    next_seq = 0;
  }

let set_capacity t cap =
  let times = Array.make cap 0. in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  (* The value array stays [[||]] until the first push supplies a fill
     value; [push_from] then sizes it to match [times]. *)
  if Array.length t.values > 0 then begin
    let values = Array.make cap t.values.(0) in
    Array.blit t.values 0 values 0 t.size;
    t.values <- values
  end

let grow t = set_capacity t (2 * Array.length t.times)

let sift_up t i0 =
  let times = t.times and seqs = t.seqs and values = t.values in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let v = Array.unsafe_get values i0 in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set values !i (Array.unsafe_get values parent);
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i v

let sift_down t i0 =
  let times = t.times and seqs = t.seqs and values = t.values in
  let size = t.size in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let v = Array.unsafe_get values i0 in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      (* Earlier of the two children, FIFO on ties. *)
      let c =
        let r = l + 1 in
        if r < size then begin
          let lt = Array.unsafe_get times l and rt = Array.unsafe_get times r in
          if
            rt < lt
            || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let ct = Array.unsafe_get times c in
      if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set values !i (Array.unsafe_get values c);
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i v

let take_seqs t k =
  let seq = t.next_seq in
  t.next_seq <- seq + k;
  seq

let take_seq t = take_seqs t 1

let push_seq_from t src j ~seq value =
  let time = src.(j) in
  if not (Float.is_finite time) then invalid_arg "Event_queue.push: bad time";
  if t.size = Array.length t.times then grow t;
  if Array.length t.values = 0 then
    t.values <- Array.make (Array.length t.times) value;
  let i = t.size in
  (* [i] is below capacity after the grow check. *)
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.values i value;
  t.size <- i + 1;
  sift_up t i

let push_from t src j value = push_seq_from t src j ~seq:(take_seq t) value

let push t ~time value = push_from t [| time |] 0 value

let is_empty t = t.size = 0
let size t = t.size

let min_time_into t dst j =
  if t.size = 0 then invalid_arg "Event_queue.min_time_into: empty";
  dst.(j) <- Array.unsafe_get t.times 0

(* Precondition: [t.size > 0]. *)
let unguarded_take t =
  let value = Array.unsafe_get t.values 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    Array.unsafe_set t.times 0 (Array.unsafe_get t.times last);
    Array.unsafe_set t.seqs 0 (Array.unsafe_get t.seqs last);
    Array.unsafe_set t.values 0 (Array.unsafe_get t.values last);
    sift_down t 0
  end;
  value

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty";
  unguarded_take t

let top t =
  if t.size = 0 then invalid_arg "Event_queue.top: empty";
  Array.unsafe_get t.values 0

let top_seq t =
  if t.size = 0 then invalid_arg "Event_queue.top_seq: empty";
  Array.unsafe_get t.seqs 0

(* The root has no parent, so whatever its new key, a sift down restores
   the heap order. *)
let replace_top_from t src j ~seq =
  if t.size = 0 then invalid_arg "Event_queue.replace_top_from: empty";
  let time = src.(j) in
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.replace_top_from: bad time";
  Array.unsafe_set t.times 0 time;
  Array.unsafe_set t.seqs 0 seq;
  sift_down t 0

(* Compact the kept entries to the front, then heapify bottom up. *)
let retain t keep =
  let times = t.times and seqs = t.seqs and values = t.values in
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let seq = Array.unsafe_get seqs i and v = Array.unsafe_get values i in
    if keep v seq then begin
      Array.unsafe_set times !j (Array.unsafe_get times i);
      Array.unsafe_set seqs !j seq;
      Array.unsafe_set values !j v;
      incr j
    end
  done;
  t.size <- !j;
  for i = (!j / 2) - 1 downto 0 do
    sift_down t i
  done

let pop t =
  if t.size = 0 then None
  else
    let time = Array.unsafe_get t.times 0 in
    Some (time, unguarded_take t)

