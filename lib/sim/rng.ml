(* The splitmix64 state lives in an 8-byte buffer rather than a
   [mutable int64] field: a mutable Int64 field holds a pointer to a boxed
   value, so every draw would allocate a fresh box.  The byte primitives
   read and write the raw 64 bits; the state never leaves this module, so
   its byte order is irrelevant. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9e3779b97f4a7c15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let create seed = of_state (mix (Int64.of_int seed))
let split t = of_state (mix (next t))

(* The top 53 bits of the next output: exactly representable as a float. *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 random bits into [0, 1). *)
  float_of_int (bits53 t) /. 9007199254740992. *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_of_float (float t (float_of_int bound))

let exponential t ~mean =
  let u = Float.max 1e-12 (float t 1.0) in
  -.mean *. log u
