type t = { n : int; f : int }

let make n =
  if n < 1 then invalid_arg "Validator_set.make: need at least one node";
  { n; f = (n - 1) / 3 }

let quorum t = t.n - t.f
let weak_quorum t = t.f + 1
let pp ppf t = Format.fprintf ppf "validators(n=%d, f=%d)" t.n t.f
