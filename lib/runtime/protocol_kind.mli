(** The five implemented protocols. *)

type t =
  | Simple_moonshot
  | Pipelined_moonshot
  | Commit_moonshot
  | Jolteon
  | Hotstuff  (** Chained HotStuff (3-chain) — extra baseline, not in the paper's evaluation. *)

(** Every implemented protocol. *)
val all : t list

(** The four protocols of the paper's evaluation (SM, PM, CM, J). *)
val paper : t list
val name : t -> string
val short_name : t -> string  (** SM, PM, CM, J (the paper's abbreviations) and HS. *)

val of_name : string -> t option
val pp : Format.formatter -> t -> unit

(** A protocol's node implementation, with its message type hidden. *)
type impl = Impl : (module Bft_types.Protocol_intf.S with type msg = 'm) -> impl

(** The node module behind each kind — the one dispatch both the
    simulator ({!Harness.run}) and the socket cluster ({!Net_harness.run})
    go through. *)
val impl : t -> impl
