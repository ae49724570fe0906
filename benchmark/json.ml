(* A small JSON value type with a printer and a parser: enough to write the
   results file and to read back BENCHMARK.json and earlier results files.
   No JSON library is in the dependency set. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal form that reads back to the same float, so values keep
   every digit they were measured with.  JSON has no NaN or infinity: those
   print as [null] (the benchmark reports them as failed checks). *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [indent = None] prints on one line; [Some k] pretty-prints with objects
   and lists of composites broken over lines. *)
let rec write buf ?indent v =
  let nl depth =
    match indent with
    | None -> ()
    | Some _ ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * depth) ' ')
  in
  let depth = Option.value indent ~default:0 in
  let next = Option.map succ indent in
  let scalar = function List _ | Obj _ -> false | _ -> true in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items when List.for_all scalar items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf x)
        items;
      Buffer.add_char buf ']'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          nl (depth + 1);
          write buf ?indent:next x)
        items;
      nl depth;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf (if indent = None then ", " else ",");
          nl (depth + 1);
          escape buf k;
          Buffer.add_string buf ": ";
          write buf ?indent:next x)
        fields;
      nl depth;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  write buf ?indent:(if pretty then Some 0 else None) v;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= len && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let utf8 buf code =
    let add i = Buffer.add_char buf (Char.chr i) in
    if code < 0x80 then add code
    else if code < 0x800 then begin
      add (0xc0 lor (code lsr 6));
      add (0x80 lor (code land 0x3f))
    end
    else begin
      add (0xe0 lor (code lsr 12));
      add (0x80 lor ((code lsr 6) land 0x3f));
      add (0x80 lor (code land 0x3f))
    end
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= len then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > len then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code -> utf8 buf code
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < len
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = (skip (); string ()) in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> len then fail "trailing data";
  v

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
      try Ok (parse contents) with Parse_error e -> Error (path ^ ": " ^ e))
  | exception Sys_error e -> Error e

let to_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string ~pretty:true v);
      output_char oc '\n')

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> l | _ -> []
