(* Every BENCH_*.json goes through [write]: one object whose first fields
   are its schema and how it was produced. *)

module Json = Bft_stats.Json

let git args =
  let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
  let out = String.trim (In_channel.input_all ic) in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None

(* The checkout's commit, "-dirty" when tracked files differ from it, or
   "unknown" outside a git checkout. *)
let commit () =
  match git "rev-parse --short HEAD" with
  | None | Some "" -> "unknown"
  | Some c -> (
      match git "--no-optional-locks status --porcelain --untracked-files=no" with
      | Some "" -> c
      | _ -> c ^ "-dirty")

let provenance () =
  Json.Obj
    [
      ("commit", String (commit ()));
      ("ocaml", String Sys.ocaml_version);
      ("domains", Int (Domain.recommended_domain_count ()));
      ( "command",
        String
          (String.concat " "
             (Filename.basename Sys.argv.(0)
             :: List.tl (Array.to_list Sys.argv))) );
    ]

let write path ~schema fields =
  let json =
    Json.Obj (("schema", String schema) :: ("provenance", provenance ()) :: fields)
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string json ^ "\n"))

(* [rows] as one array of objects. *)
let array rows = Json.List (List.map (fun row -> Json.Obj row) rows)

(* The named [columns] of [rows], as a table on stdout. *)
let print_columns columns rows =
  Bft_stats.Table.print Format.std_formatter (Json.table columns rows)
