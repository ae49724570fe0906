type t =
  | Simple_moonshot
  | Pipelined_moonshot
  | Commit_moonshot
  | Jolteon
  | Hotstuff

let paper = [ Simple_moonshot; Pipelined_moonshot; Commit_moonshot; Jolteon ]
let all = paper @ [ Hotstuff ]

let name = function
  | Simple_moonshot -> "simple-moonshot"
  | Pipelined_moonshot -> "pipelined-moonshot"
  | Commit_moonshot -> "commit-moonshot"
  | Jolteon -> "jolteon"
  | Hotstuff -> "hotstuff"

let short_name = function
  | Simple_moonshot -> "SM"
  | Pipelined_moonshot -> "PM"
  | Commit_moonshot -> "CM"
  | Jolteon -> "J"
  | Hotstuff -> "HS"

let of_name = function
  | "simple-moonshot" | "simple" | "SM" | "sm" -> Some Simple_moonshot
  | "pipelined-moonshot" | "pipelined" | "PM" | "pm" -> Some Pipelined_moonshot
  | "commit-moonshot" | "commit" | "CM" | "cm" -> Some Commit_moonshot
  | "jolteon" | "J" | "j" -> Some Jolteon
  | "hotstuff" | "HS" | "hs" -> Some Hotstuff
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (name t)

type impl = Impl : (module Bft_types.Protocol_intf.S with type msg = 'm) -> impl

let impl = function
  | Simple_moonshot -> Impl (module Moonshot.Simple_node.Protocol)
  | Pipelined_moonshot -> Impl (module Moonshot.Pipelined_node.Protocol)
  | Commit_moonshot -> Impl (module Moonshot.Pipelined_node.Commit_protocol)
  | Jolteon -> Impl (module Jolteon.Jolteon_node.Protocol)
  | Hotstuff -> Impl (module Hotstuff.Hotstuff_node.Protocol)
