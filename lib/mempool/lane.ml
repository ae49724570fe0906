(* The rings start small and double, up to [cap], when a push finds them
   full: a mempool sized for a burst costs memory only once the burst
   comes.  Growing unrolls the ring to start at slot 0.  128 slots hold
   twice a full batch's share of one lane in the default spec (512
   commands over 8 lanes), so steady traffic never grows a lane. *)
type t = {
  mutable seqs : int array;
  mutable times : float array;
  cap : int;
  mutable head : int;
  mutable len : int;
}

let initial_slots = 128

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lane.create: capacity must be positive";
  let slots = min capacity initial_slots in
  {
    seqs = Array.make slots 0;
    times = Array.make slots 0.;
    cap = capacity;
    head = 0;
    len = 0;
  }

let capacity t = t.cap
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = t.cap

let grow t =
  let old = Array.length t.seqs in
  let slots = min t.cap (2 * old) in
  let seqs = Array.make slots 0 and times = Array.make slots 0. in
  let first = old - t.head in
  Array.blit t.seqs t.head seqs 0 first;
  Array.blit t.seqs 0 seqs first t.head;
  Array.blit t.times t.head times 0 first;
  Array.blit t.times 0 times first t.head;
  t.seqs <- seqs;
  t.times <- times;
  t.head <- 0

let push t ~seq times i =
  if t.len = t.cap then invalid_arg "Lane.push: full";
  if t.len = Array.length t.seqs then grow t;
  let slots = Array.length t.seqs in
  let slot = t.head + t.len in
  let slot = if slot >= slots then slot - slots else slot in
  t.seqs.(slot) <- seq;
  t.times.(slot) <- times.(i);
  t.len <- t.len + 1

let front_seq t =
  if t.len = 0 then invalid_arg "Lane.front_seq: empty";
  t.seqs.(t.head)

let front_time_into t times i =
  if t.len = 0 then invalid_arg "Lane.front_time_into: empty";
  times.(i) <- t.times.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Lane.pop: empty";
  t.head <- (if t.head + 1 >= Array.length t.seqs then 0 else t.head + 1);
  t.len <- t.len - 1
