(** Plain-text table rendering for benchmark output. *)

type t

(** [create headers] — column count is fixed by the header row. *)
val create : string list -> t

(** Append a row.  Raises [Invalid_argument] on a column-count mismatch. *)
val add_row : t -> string list -> unit

(** Render with columns padded to their widest cell. *)
val print : Format.formatter -> t -> unit

(** Shorthand for formatting float cells. *)
val cell : float -> string
