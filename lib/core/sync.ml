open Bft_types

let batch_size = 32

type 'msg t = {
  core : 'msg Node_core.t;
  env : 'msg Env.t;
  make_request : Hash.t -> 'msg;
  make_response : Block.t list -> 'msg;
  mutable last_request : (int * float) option;  (* hash key, send time *)
  mutable attempt : int;
  mutable timer_alive : bool;
  mutable requests_sent : int;
}

let create ~core ~env ~make_request ~make_response =
  {
    core;
    env;
    make_request;
    make_response;
    last_request = None;
    attempt = 0;
    timer_alive = false;
    requests_sent = 0;
  }

let requests_sent t = t.requests_sent

(* Wall-clock values (the last request's send time) and the request counter
   are excluded: the model checker runs on a logical clock, and including
   real times would make behaviourally equivalent states digest apart.
   This abstracts the [recently_asked] rate limit — a documented, safe
   over-approximation (it can only make the checker explore more). *)
let state_hash t =
  Hash.of_fields
    [
      (match t.last_request with
      | None -> 0L
      | Some (k, _) ->
          Hash.to_int64 (Hash.of_fields [ 1L; Int64.of_int k ]));
      Int64.of_int t.attempt;
      (if t.timer_alive then 1L else 0L);
    ]

(* Pick a target: the hinted proposer first, then rotate through the other
   peers (excluding ourselves) on each retry. *)
let target t ~hint =
  let n = Env.n t.env in
  let rec pick candidate =
    if candidate <> t.env.Env.id then candidate
    else pick ((candidate + 1) mod n)
  in
  pick ((hint + t.attempt) mod n)

let rec poke t =
  match Node_core.first_missing t.core with
  | None ->
      t.last_request <- None;
      t.attempt <- 0
  | Some (missing, hint) ->
      let now = t.env.Env.now () in
      let key = Hash.to_int missing in
      let recently_asked =
        match t.last_request with
        | Some (k, at) -> k = key && now -. at < t.env.Env.delta
        | None -> false
      in
      if not recently_asked then begin
        (match t.last_request with
        | Some (k, _) when k = key -> t.attempt <- t.attempt + 1
        | Some _ | None -> t.attempt <- 0);
        t.last_request <- Some (key, now);
        t.requests_sent <- t.requests_sent + 1;
        (match t.env.Env.probe with
        | Some probe -> probe (Probe.Sync_request { attempt = t.attempt })
        | None -> ());
        t.env.Env.send (target t ~hint) (t.make_request missing)
      end;
      if not t.timer_alive then begin
        t.timer_alive <- true;
        let (_cancel : unit -> unit) =
          t.env.Env.set_timer t.env.Env.delta (fun () ->
              t.timer_alive <- false;
              poke t)
        in
        ()
      end

let handle_request t ~src hash =
  match Node_core.chain_segment t.core hash ~max:batch_size with
  | [] -> ()
  | blocks -> t.env.Env.send src (t.make_response blocks)

let handle_response t blocks =
  List.iter (Node_core.note_block t.core) blocks;
  poke t
