(** JSON values for bench files, and the printer that lays them out. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float  (** [Float (d, x)] prints [x] with [d] decimals. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] prints [v] with no trailing newline.  The outer two
    levels of lists and objects hold one element or field per line,
    indented by two spaces a level; deeper ones print on one line.
    Strings escape the double quote, the backslash and control characters
    (as [\u00XX]); a non-finite float prints as [null]. *)
val to_string : t -> string

(** [table columns rows] is the table of the fields named [columns] in each
    row: a string prints unquoted, [Null] as ["-"], anything else as
    {!to_string} does.  Raises [Not_found] when a row lacks a column. *)
val table : string list -> (string * t) list list -> Table.t
