(* Windows of one kind live in parallel arrays: [from_] and [until] bounds,
   and the partition groups or the loss and delay values.  Float arrays
   are stored unboxed, and every loop below keeps its accumulator in a
   local, so no query allocates. *)
type t = {
  part_from : float array;
  part_until : float array;
  group_of : int array array;
  loss_from : float array;
  loss_until : float array;
  loss_prob : float array;
  delay_from : float array;
  delay_until : float array;
  delay_ms : float array;
}

let empty =
  {
    part_from = [||];
    part_until = [||];
    group_of = [||];
    loss_from = [||];
    loss_until = [||];
    loss_prob = [||];
    delay_from = [||];
    delay_until = [||];
    delay_ms = [||];
  }

let is_empty t =
  Array.length t.part_from = 0
  && Array.length t.loss_from = 0
  && Array.length t.delay_from = 0

let snoc a x = Array.append a [| x |]

let partition t ~from_ ~until ~group_of =
  {
    t with
    part_from = snoc t.part_from from_;
    part_until = snoc t.part_until until;
    group_of = snoc t.group_of group_of;
  }

let loss t ~from_ ~until ~prob =
  {
    t with
    loss_from = snoc t.loss_from from_;
    loss_until = snoc t.loss_until until;
    loss_prob = snoc t.loss_prob prob;
  }

let delay t ~from_ ~until ~extra_ms =
  {
    t with
    delay_from = snoc t.delay_from from_;
    delay_until = snoc t.delay_until until;
    delay_ms = snoc t.delay_ms extra_ms;
  }

let cut t ~src ~dst times i =
  let now = times.(i) in
  let k = Array.length t.part_from in
  let j = ref 0 and hit = ref false in
  while (not !hit) && !j < k do
    let w = !j in
    if now >= t.part_from.(w) && now < t.part_until.(w) then begin
      let g = t.group_of.(w) in
      hit := g.(src) <> g.(dst)
    end;
    j := w + 1
  done;
  !hit

(* The draw is [Rng.float rng 1.], scaled here from the raw bits so that
   it stays an unboxed float (see [Latency.uniform]). *)
let keep t rng times i =
  let now = times.(i) in
  let kept = ref 1. in
  for w = 0 to Array.length t.loss_from - 1 do
    if now >= t.loss_from.(w) && now < t.loss_until.(w) then
      kept := !kept *. (1. -. t.loss_prob.(w))
  done;
  let p = 1. -. !kept in
  p <= 0. || float_of_int (Rng.bits53 rng) /. 9007199254740992. >= p

let add_delay t times ~now i =
  let at = times.(now) in
  let extra = ref 0. in
  for w = 0 to Array.length t.delay_from - 1 do
    if at >= t.delay_from.(w) && at < t.delay_until.(w) then
      extra := !extra +. t.delay_ms.(w)
  done;
  times.(i) <- times.(i) +. !extra
