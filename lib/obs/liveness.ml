exception Violation of string

let fail fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt

(* Worst case to resume committing after a disruption-free point: up to a
   full view-timer period (5 Delta) before the stuck nodes' next timeout
   rebroadcast, a TC forms and propagates, the next leader waits its
   2 Delta fallback before proposing, votes and certificates flow, and a
   2-chain/3-chain head must build on top — plus sync round-trips for a
   recovering node.  Simple Moonshot's chain adds up to ~12 Delta with no
   slack at all; 20 Delta covers all four protocols with real margin while
   still failing fast on a genuine stall. *)
let k = 20.

type pending_recovery = {
  p_node : int;
  p_crashed_at : float;
  p_recovered_at : float;
  p_target_height : int;
  mutable p_caught_up_at : float option;
}

type t = {
  n : int;
  delta : float;
  gst : float;
  exempt : bool array;
  up : bool array;
  crashed_at : float array;  (* last crash time; nan = never crashed *)
  last_commit : float array;  (* last local commit time; nan = never *)
  commit_height : int array;
  quorum_hash_at : (int, int) Hashtbl.t;  (* height -> block hash *)
  mutable quorum_height : int;
  mutable last_quorum_commit : float;  (* nan = none yet *)
  mutable max_quorum_gap : float;
  mutable recoveries : pending_recovery list;  (* newest first *)
  mutable checks_passed : int;
  mutable min_slack : float;  (* nan = no check has passed yet *)
}

let create ~n ~delta ~gst =
  if n < 1 then invalid_arg "Liveness.create: n < 1";
  if delta <= 0. then invalid_arg "Liveness.create: delta <= 0";
  {
    n;
    delta;
    gst;
    exempt = Array.make n false;
    up = Array.make n true;
    crashed_at = Array.make n Float.nan;
    last_commit = Array.make n Float.nan;
    commit_height = Array.make n 0;
    quorum_hash_at = Hashtbl.create 256;
    quorum_height = 0;
    last_quorum_commit = Float.nan;
    max_quorum_gap = 0.;
    recoveries = [];
    checks_passed = 0;
    min_slack = Float.nan;
  }

let bound t = k *. t.delta
let set_exempt t i = t.exempt.(i) <- true

let note_commit t ~node ~time ~height =
  t.last_commit.(node) <- time;
  if height > t.commit_height.(node) then t.commit_height.(node) <- height;
  List.iter
    (fun r ->
      if
        r.p_node = node
        && r.p_caught_up_at = None
        && time >= r.p_recovered_at
        && height >= r.p_target_height
      then r.p_caught_up_at <- Some time)
    t.recoveries

let note_quorum_commit t ~time ~height ~hash =
  (match Hashtbl.find_opt t.quorum_hash_at height with
  | Some h when h <> hash ->
      fail "conflicting quorum commits at height %d" height
  | Some _ -> ()
  | None -> Hashtbl.add t.quorum_hash_at height hash);
  if time >= t.gst && not (Float.is_nan t.last_quorum_commit) then
    t.max_quorum_gap <-
      Float.max t.max_quorum_gap (time -. t.last_quorum_commit);
  t.last_quorum_commit <- time;
  if height > t.quorum_height then t.quorum_height <- height

let note_crash t ~node ~time =
  t.up.(node) <- false;
  t.crashed_at.(node) <- time

let note_recover t ~node ~time =
  t.up.(node) <- true;
  t.recoveries <-
    {
      p_node = node;
      p_crashed_at = t.crashed_at.(node);
      p_recovered_at = time;
      p_target_height = t.quorum_height;
      p_caught_up_at = None;
    }
    :: t.recoveries

let check t ~since ~now =
  let b = bound t in
  if Float.is_nan t.last_quorum_commit || t.last_quorum_commit <= since then
    fail
      "liveness: no quorum commit in (%.0f, %.0f] ms (bound %.0f ms = %g \
       Delta)"
      since now b k;
  (* Slack: by how much the tightest obligation cleared the window — the
     latest-committing obligated entity's last commit minus [since].  A
     slack of epsilon means one commit landed just inside the bound: a
     near-miss worth surfacing even though the check passed. *)
  let slack = ref (t.last_quorum_commit -. since) in
  for i = 0 to t.n - 1 do
    (* Only nodes that were correct and up for the whole window are owed
       progress; a node that crashed inside it gets its own post-recovery
       check later. *)
    let crashed_inside =
      (not (Float.is_nan t.crashed_at.(i))) && t.crashed_at.(i) > since
    in
    if t.up.(i) && (not t.exempt.(i)) && not crashed_inside then
      if Float.is_nan t.last_commit.(i) || t.last_commit.(i) <= since then
        fail "liveness: node %d committed nothing in (%.0f, %.0f] ms" i since
          now
      else slack := Float.min !slack (t.last_commit.(i) -. since)
  done;
  if Float.is_nan t.min_slack then t.min_slack <- !slack
  else t.min_slack <- Float.min t.min_slack !slack;
  t.checks_passed <- t.checks_passed + 1

type recovery = {
  node : int;
  crashed_at_ms : float;
  recovered_at_ms : float;
  target_height : int;
  caught_up_at_ms : float option;
}

type report = {
  recoveries : recovery list;
  max_quorum_gap_ms : float;
  checks_passed : int;
  bound_ms : float;
  min_slack_ms : float option;
}

let report (t : t) =
  {
    recoveries =
      List.rev_map
        (fun r ->
          {
            node = r.p_node;
            crashed_at_ms = r.p_crashed_at;
            recovered_at_ms = r.p_recovered_at;
            target_height = r.p_target_height;
            caught_up_at_ms = r.p_caught_up_at;
          })
        t.recoveries;
    max_quorum_gap_ms = t.max_quorum_gap;
    checks_passed = t.checks_passed;
    bound_ms = bound t;
    min_slack_ms = (if Float.is_nan t.min_slack then None else Some t.min_slack);
  }
