(* Packed bitset over an int word array, 32 bits per word: bit [i] of the
   set lives in word [i lsr 5] at position [i land 31].  Word granularity
   keeps every operation branch-light flat-array arithmetic — no byte
   boxing, no per-bit range checks — and [count] walks whole words.

   [add] validates the index once and then works on the word unchecked,
   so the certificate-accumulation hot path (one [add] per vote, O(n^2)
   of them per view) pays a single bounds check per contribution. *)

type t = { words : int array; n : int }

let bits_per_word = 32

let create ~n =
  if n < 0 then invalid_arg "Signer_set.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

(* SWAR popcount of a 32-bit word; every intermediate fits a native int. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (* Truncate the byte-summing multiply to 32 bits: OCaml ints are wider,
     so without the mask the product's upper bytes leak into the shift. *)
  ((x * 0x01010101) land 0xffffffff) lsr 24

let add t i =
  if i < 0 || i >= t.n then invalid_arg "Signer_set: signer out of range";
  let w = i lsr 5 in
  let bit = 1 lsl (i land 31) in
  let old = Array.unsafe_get t.words w in
  if old land bit <> 0 then false
  else begin
    Array.unsafe_set t.words w (old lor bit);
    true
  end

let count t =
  let c = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    c := !c + popcount32 (Array.unsafe_get t.words w)
  done;
  !c

(* High-to-low walk so the prepends come out ascending. *)
let to_list t =
  let acc = ref [] in
  for w = Array.length t.words - 1 downto 0 do
    let word = Array.unsafe_get t.words w in
    if word <> 0 then begin
      let base = w lsl 5 in
      for bit = bits_per_word - 1 downto 0 do
        if word land (1 lsl bit) <> 0 then acc := (base + bit) :: !acc
      done
    end
  done;
  !acc
