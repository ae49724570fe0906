type t = {
  seqs : int array;
  times : float array;
  cap : int;
  mutable head : int;
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lane.create: capacity must be positive";
  {
    seqs = Array.make capacity 0;
    times = Array.make capacity 0.;
    cap = capacity;
    head = 0;
    len = 0;
  }

let capacity t = t.cap
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = t.cap

let push t ~seq times i =
  if t.len = t.cap then invalid_arg "Lane.push: full";
  let slot = t.head + t.len in
  let slot = if slot >= t.cap then slot - t.cap else slot in
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
  t.head <- (if t.head + 1 >= t.cap then 0 else t.head + 1);
  t.len <- t.len - 1
