type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: column count mismatch";
  t.rows <- row :: t.rows

let print ppf t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map (fun _ -> 0) t.headers)
      all
  in
  let print_row row =
    List.iter2
      (fun w c -> Format.fprintf ppf "%-*s  " w c)
      widths row;
    Format.fprintf ppf "@."
  in
  print_row t.headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let cell v =
  if Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v
