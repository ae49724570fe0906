type t = Opt | Normal | Fallback

let equal a b =
  match (a, b) with
  | Opt, Opt | Normal, Normal | Fallback, Fallback -> true
  | (Opt | Normal | Fallback), _ -> false

let to_tag = function Opt -> 0 | Normal -> 1 | Fallback -> 2
let count = 3
let compare a b = Int.compare (to_tag a) (to_tag b)

let pp ppf = function
  | Opt -> Format.pp_print_string ppf "opt"
  | Normal -> Format.pp_print_string ppf "normal"
  | Fallback -> Format.pp_print_string ppf "fallback"
