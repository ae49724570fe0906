type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The outer two levels break one item per line; deeper ones stay inline. *)
let add_seq b depth (opening, closing) add_item items =
  let newline level =
    if depth < 2 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * level) ' ')
    end
  in
  Buffer.add_char b opening;
  if items <> [] then begin
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b (if depth < 2 then "," else ", ");
        newline (depth + 1);
        add_item item)
      items;
    newline depth
  end;
  Buffer.add_char b closing

let rec add b depth = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float (d, x) when Float.is_finite x -> Printf.bprintf b "%.*f" d x
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_string b s
  | List vs -> add_seq b depth ('[', ']') (add b (depth + 1)) vs
  | Obj fields ->
      add_seq b depth ('{', '}')
        (fun (k, v) ->
          add_string b k;
          Buffer.add_string b ": ";
          add b (depth + 1) v)
        fields

let to_string v =
  let b = Buffer.create 4096 in
  add b 0 v;
  Buffer.contents b

let table columns rows =
  let t = Table.create columns in
  let cell row column =
    match List.assoc column row with
    | Null -> "-"
    | String s -> s
    | v -> to_string v
  in
  List.iter (fun row -> Table.add_row t (List.map (cell row) columns)) rows;
  t
