type t = Round_robin | Best_case | Worst_moonshot | Worst_jolteon

let all = [ Round_robin; Best_case; Worst_moonshot; Worst_jolteon ]

let name = function
  | Round_robin -> "round-robin"
  | Best_case -> "B"
  | Worst_moonshot -> "WM"
  | Worst_jolteon -> "WJ"

let of_name = function
  | "round-robin" -> Some Round_robin
  | "B" | "best" -> Some Best_case
  | "WM" | "worst-moonshot" -> Some Worst_moonshot
  | "WJ" | "worst-jolteon" -> Some Worst_jolteon
  | _ -> None

let check ~n ~f' =
  if n < 1 then invalid_arg "Schedules: n < 1";
  if f' < 0 || f' > (n - 1) / 3 then
    invalid_arg "Schedules: f' must satisfy 0 <= f' <= (n - 1) / 3"

let is_byzantine ~n ~f' i =
  check ~n ~f';
  i >= n - f'

(* Interleave leaders drawn from the honest pool (0 .. n-f'-1, in order) and
   the Byzantine pool (n-f' .. n-1, in order) according to a per-schedule
   pattern, then append whatever remains of each pool. *)
let build ~n ~f' ~pattern_honest_run ~pattern_byz_run ~pattern_cycles =
  let arr = Array.make n 0 in
  let next_honest = ref 0 and next_byz = ref (n - f') and pos = ref 0 in
  let push id =
    arr.(!pos) <- id;
    incr pos
  in
  for _ = 1 to pattern_cycles do
    for _ = 1 to pattern_honest_run do
      push !next_honest;
      incr next_honest
    done;
    for _ = 1 to pattern_byz_run do
      push !next_byz;
      incr next_byz
    done
  done;
  while !next_honest < n - f' do
    push !next_honest;
    incr next_honest
  done;
  while !next_byz < n do
    push !next_byz;
    incr next_byz
  done;
  assert (!pos = n);
  arr

let arrangement t ~n ~f' =
  check ~n ~f';
  match t with
  | Round_robin -> Array.init n (fun i -> i)
  | Best_case ->
      (* All honest, then all Byzantine: identity, given Byzantine ids are
         the tail. *)
      Array.init n (fun i -> i)
  | Worst_moonshot ->
      build ~n ~f' ~pattern_honest_run:1 ~pattern_byz_run:1 ~pattern_cycles:f'
  | Worst_jolteon ->
      build ~n ~f' ~pattern_honest_run:2 ~pattern_byz_run:1 ~pattern_cycles:f'

let leader_of t ~n ~f' =
  let arr = arrangement t ~n ~f' in
  fun view -> arr.((view - 1) mod n)
