(** The replicated key-value state machine.

    Deterministic: two stores that applied the same command sequence have
    equal {!digest}s, which is how tests and examples verify the SMR
    consistency guarantee end to end. *)

type t

(** An empty store. *)
val create : unit -> t

(** Execute one command against the store. *)
val apply : t -> Command.t -> unit

(** Current value bound to a key, if any. *)
val find : t -> string -> int option
val size : t -> int  (** Number of live keys. *)

val applied : t -> int  (** Total commands applied. *)

(** Order-independent digest of the current bindings plus the applied-command
    count (so replicas that applied different prefixes differ). *)
val digest : t -> Bft_types.Hash.t
