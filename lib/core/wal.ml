open Bft_types

type state = {
  cur_view : int;
  lock : Cert.t;
  timeout_view : int;
  voted_opt : Block.t option;
  voted_main : bool;
}

type t = {
  mutable latest : state option;
  mutable writes : int;
  mutable snapshot : string option;
}

let create () = { latest = None; writes = 0; snapshot = None }

let record t state =
  t.latest <- Some state;
  t.writes <- t.writes + 1;
  t.snapshot <- None

let snapshot t encode =
  match t.snapshot with
  | Some s -> s
  | None ->
      let s = encode t in
      t.snapshot <- Some s;
      s

let load t = t.latest
let writes t = t.writes

let state_digest (s : state) =
  Hash.of_fields
    [
      Int64.of_int s.cur_view;
      Hash.to_int64 (Cert.digest s.lock);
      Int64.of_int s.timeout_view;
      Hash.to_int64
        (match s.voted_opt with None -> Hash.null | Some b -> b.Block.hash);
      (if s.voted_main then 1L else 0L);
    ]

(* The write counter is a statistic, not state: recovery only reads the
   latest record, so two logs with equal latest records are equivalent. *)
let digest t =
  match t.latest with None -> Hash.null | Some s -> state_digest s
