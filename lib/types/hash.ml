type t = int64

let equal = Int64.equal
let compare = Int64.compare

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* Every fold below keeps its accumulator in a local [ref] that never
   escapes, which ocamlopt keeps unboxed; a helper taking or returning an
   [int64] would box it once per byte (the dev profile's [-opaque] stops
   cross-module inlining, and a recursive helper is never inlined). *)

let of_fields fields =
  let acc = ref fnv_offset in
  let rest = ref fields in
  let finished = ref false in
  while not !finished do
    match !rest with
    | [] -> finished := true
    | v :: tl ->
        for i = 0 to 7 do
          let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
          acc := Int64.mul (Int64.logxor !acc (Int64.of_int b)) fnv_prime
        done;
        rest := tl
  done;
  !acc

let of_ints6 a b c d e f =
  let acc = ref fnv_offset in
  for k = 0 to 5 do
    let v =
      match k with 0 -> a | 1 -> b | 2 -> c | 3 -> d | 4 -> e | _ -> f
    in
    (* [asr] on the 63-bit int replicates the sign bit into bits 56..63,
       exactly the top byte of [Int64.of_int v]. *)
    for i = 0 to 7 do
      let byte = (v asr (8 * i)) land 0xff in
      acc := Int64.mul (Int64.logxor !acc (Int64.of_int byte)) fnv_prime
    done
  done;
  !acc

module Sum = struct
  (* Eight bytes rather than a mutable [int64] field, which would box
     every update. *)
  type t = Bytes.t

  let create () = Bytes.make 8 '\000'
  let value s = Bytes.get_int64_ne s 0

  (* [of_ints6]'s loop over the first [len] of four fields. *)
  let add s len a b c d =
    let acc = ref fnv_offset in
    for k = 0 to len - 1 do
      let v = match k with 0 -> a | 1 -> b | 2 -> c | _ -> d in
      for i = 0 to 7 do
        let byte = (v asr (8 * i)) land 0xff in
        acc := Int64.mul (Int64.logxor !acc (Int64.of_int byte)) fnv_prime
      done
    done;
    Bytes.set_int64_ne s 0 (Int64.add (Bytes.get_int64_ne s 0) !acc)

  let add3 s a b c = add s 3 a b c 0
  let add4 s a b c d = add s 4 a b c d
end

let of_string s =
  let acc = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !acc

let null = 0L
let to_hex t = Printf.sprintf "%016Lx" t
let pp ppf t = Format.fprintf ppf "#%s" (String.sub (to_hex t) 0 8)
let to_int = Int64.to_int
let to_int64 t = t
let of_int64 v = v
