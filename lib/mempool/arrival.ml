(* Native-int mixer (splitmix-style, truncated constants so every literal
   fits OCaml's 63-bit int).  Arithmetic wraps in the tagged word; the final
   mask keeps results non-negative.  All draws are native ints and floats —
   no boxing, so generating millions of arrivals allocates nothing. *)
let mix z =
  let z = z + 0x2545f4914f6cdd1d in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land max_int

type t = {
  clients : int;
  mean_gap_ms : float;
  per_view : int;
  clock : Spec.clock;
  seed : int;
  mutable state : int;
  mutable index : int;
  (* [time.(0)] is the next arrival's time.  A mutable float field of this
     mixed record would be stored boxed, one allocation per arrival. *)
  time : float array;
}

(* Draw the next interarrival gap and add it to the time, in place: a gap
   returned as a float would be boxed. *)
let add_gap t =
  t.state <- mix t.state;
  let u = float_of_int (t.state land ((1 lsl 53) - 1)) /. 9007199254740992. in
  let gap = -.t.mean_gap_ms *. log (if u < 1e-15 then 1e-15 else u) in
  t.time.(0) <- t.time.(0) +. gap

let create (spec : Spec.t) =
  let t =
    {
      clients = spec.clients;
      mean_gap_ms =
        (if spec.rate_per_s > 0. then 1000. /. spec.rate_per_s else 1.);
      per_view = spec.per_view;
      clock = spec.clock;
      seed = mix (spec.seed + 0x1ced);
      state = mix (spec.seed + 0x1ced);
      index = 0;
      time = [| 0. |];
    }
  in
  (match t.clock with Spec.Wall -> add_gap t | Spec.Views -> ());
  t

let seq t = t.index

let client_of t s = mix (t.seed lxor ((s + 1) * 0x21c8864680b583eb)) mod t.clients

let next_client t = client_of t t.index
let next_time_into t times i = times.(i) <- t.time.(0)

let advance t =
  t.index <- t.index + 1;
  match t.clock with
  | Spec.Wall -> add_gap t
  | Spec.Views ->
      (* Arrival [s] becomes visible in view slot [s / per_view] (plus one:
         the first proposing view is 1, not the genesis view 0). *)
      t.time.(0) <- float_of_int (1 + (t.index / t.per_view))

let count_until t ~now =
  while t.time.(0) <= now do
    advance t
  done;
  t.index
