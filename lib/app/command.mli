(** Client commands executed by the replicated state machine.

    The consensus layer carries parametric payloads (as in the paper's
    evaluation); the application layer expands each payload into the
    commands it stands for.  Expansion is a pure function of the payload
    descriptor, so every replica derives the same command sequence — exactly
    the property SMR needs, without materializing megabytes of bytes inside
    the simulator. *)

type t =
  | Set of { key : string; value : int }
  | Incr of { key : string; by : int }
  | Del of { key : string }

(** [of_payload p] expands a payload into its [Payload.item_count p]
    commands, deterministically from [p.id]. *)
val of_payload : Bft_types.Payload.t -> t list

(** Structural equality. *)
val equal : t -> t -> bool

(** Human-readable rendering, e.g. [set k3=17]. *)
val pp : Format.formatter -> t -> unit
