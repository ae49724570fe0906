open Bft_types

let batch_size = 32

type 'msg t = {
  core : 'msg Node_core.t;
  env : 'msg Env.t;
  make_request : Hash.t -> 'msg;
  make_response : Block.t list -> 'msg;
  (* The last request: whether there is one, its hash key, and its send
     time in slot 0 (a float array, so storing it boxes nothing). *)
  mutable asked : bool;
  mutable asked_key : int;
  asked_at : float array;
  mutable attempt : int;
  mutable timer_alive : bool;
  mutable requests_sent : int;
  mutable retry : unit -> unit;  (* the retry timer's callback, built once *)
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
      (if t.asked then
         Hash.to_int64 (Hash.of_fields [ 1L; Int64.of_int t.asked_key ])
       else 0L);
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

let poke t =
  match Node_core.first_missing t.core with
  | exception Not_found ->
      t.asked <- false;
      t.attempt <- 0
  | (child : Block.t) ->
      let missing = child.Block.parent in
      let now = t.env.Env.now () in
      let key = Hash.to_int missing in
      let same = t.asked && t.asked_key = key in
      if not (same && now -. t.asked_at.(0) < t.env.Env.delta) then begin
        t.attempt <- (if same then t.attempt + 1 else 0);
        t.asked <- true;
        t.asked_key <- key;
        t.asked_at.(0) <- now;
        t.requests_sent <- t.requests_sent + 1;
        (match t.env.Env.probe with
        | Some probe -> probe (Probe.Sync_request { attempt = t.attempt })
        | None -> ());
        let dst = target t ~hint:child.Block.proposer in
        t.env.Env.send dst (t.make_request missing)
      end;
      if not t.timer_alive then begin
        t.timer_alive <- true;
        ignore (t.env.Env.set_timer t.env.Env.delta t.retry : unit -> unit)
      end

let create ~core ~env ~make_request ~make_response =
  let t =
    { core; env; make_request; make_response; asked = false; asked_key = 0;
      asked_at = [| 0. |]; attempt = 0; timer_alive = false; requests_sent = 0;
      retry = ignore }
  in
  t.retry <- (fun () -> t.timer_alive <- false; poke t);
  t

let handle_request t ~src hash =
  match Node_core.chain_segment t.core hash ~max:batch_size with
  | [] -> ()
  | blocks -> t.env.Env.send src (t.make_response blocks)

let handle_response t blocks =
  List.iter (Node_core.note_block t.core) blocks;
  poke t
