type violation_kind =
  | Conflicting_commits
  | Commit_log_exception
  | Lock_regression
  | Wal_divergence
  | Double_vote

type violation = {
  kind : violation_kind;
  detail : string;
  path : int list;
}

type stats = {
  states_visited : int;
  states_matched : int;
  states_reexpanded : int;
  transitions : int;
  branches : int;
  sleep_skips : int;
  leaves : int;
  max_depth_seen : int;
  exhausted : bool;
}

type t = {
  stats : stats;
  violations : violation list;
  max_committed : int;
  commit_witness : int list option;
  leaves_without_commit : int;
  deadlocks : int;
  deadlock_witness : int list option;
  livelocks : int;
  livelock_witness : int list option;
}

let kind_name = function
  | Conflicting_commits -> "conflicting-commits"
  | Commit_log_exception -> "commit-log-exception"
  | Lock_regression -> "lock-regression"
  | Wal_divergence -> "wal-divergence"
  | Double_vote -> "double-vote"

let digest_prune_ratio s =
  if s.transitions = 0 then 0.
  else float_of_int s.states_matched /. float_of_int s.transitions

let sleep_prune_ratio s =
  let offered = s.branches + s.sleep_skips in
  if offered = 0 then 0. else float_of_int s.sleep_skips /. float_of_int offered

let pp_path ppf path =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ';')
       Format.pp_print_int)
    path

let pp_violation ppf v =
  Format.fprintf ppf "%s at %a: %s" (kind_name v.kind) pp_path v.path v.detail

let pp ppf t =
  Format.fprintf ppf
    "@[<v>states=%d matched=%d reexpanded=%d transitions=%d branches=%d \
     sleep-skips=%d leaves=%d depth<=%d exhausted=%b@,\
     max-committed=%d leaves-without-commit=%d deadlocks=%d livelocks=%d%a%a%a%a@]"
    t.stats.states_visited t.stats.states_matched t.stats.states_reexpanded
    t.stats.transitions t.stats.branches t.stats.sleep_skips t.stats.leaves
    t.stats.max_depth_seen t.stats.exhausted t.max_committed
    t.leaves_without_commit t.deadlocks t.livelocks
    (fun ppf -> function
      | None -> ()
      | Some w -> Format.fprintf ppf "@,commit-witness=%a" pp_path w)
    t.commit_witness
    (fun ppf -> function
      | None -> ()
      | Some w -> Format.fprintf ppf "@,deadlock-witness=%a" pp_path w)
    t.deadlock_witness
    (fun ppf -> function
      | None -> ()
      | Some w -> Format.fprintf ppf "@,livelock-witness=%a" pp_path w)
    t.livelock_witness
    (fun ppf -> function
      | [] -> ()
      | vs ->
          Format.fprintf ppf "@,%d violation(s):@,%a" (List.length vs)
            (Format.pp_print_list pp_violation)
            vs)
    t.violations

(* {2 Swarm mode} *)

type endpoint =
  | Ep_violation
  | Ep_livelock
  | Ep_no_action
  | Ep_view_bound
  | Ep_depth

let endpoint_name = function
  | Ep_violation -> "violation"
  | Ep_livelock -> "livelock"
  | Ep_no_action -> "no-action"
  | Ep_view_bound -> "view-bound"
  | Ep_depth -> "depth-cap"

type swarm = {
  sw_walks : int;
  sw_steps : int;
  sw_distinct : int;
  sw_endpoints : (endpoint * int) list;
  sw_max_committed : int;
  sw_commitless : int;
  sw_max_tail : int;
  sw_violations : violation list;
  sw_livelock_witness : int list option;
  sw_fingerprint : int64;
}

let coverage sw =
  if sw.sw_walks = 0 then 0.
  else float_of_int sw.sw_distinct /. float_of_int sw.sw_walks

let pp_swarm ppf sw =
  Format.fprintf ppf
    "@[<v>walks=%d steps=%d distinct-digests=%d coverage=%.1f \
     max-committed=%d commitless=%d max-commit-free-tail=%d \
     fingerprint=%Lx@,endpoints: %a%a%a@]"
    sw.sw_walks sw.sw_steps sw.sw_distinct (coverage sw) sw.sw_max_committed
    sw.sw_commitless sw.sw_max_tail sw.sw_fingerprint
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (ep, k) ->
         Format.fprintf ppf "%s=%d" (endpoint_name ep) k))
    sw.sw_endpoints
    (fun ppf -> function
      | None -> ()
      | Some w -> Format.fprintf ppf "@,livelock-witness=%a" pp_path w)
    sw.sw_livelock_witness
    (fun ppf -> function
      | [] -> ()
      | vs ->
          Format.fprintf ppf "@,%d violation(s):@,%a" (List.length vs)
            (Format.pp_print_list pp_violation)
            vs)
    sw.sw_violations

(* {2 Coverage-guided schedule search} *)

type counterexample =
  | Cx_livelock of int list
  | Cx_violation of violation

type search = {
  se_rounds : int;
  se_evals : int;
  se_distinct : int;
  se_best : (string * float) list;
  se_counterexample : (string * counterexample) option;
}

let pp_counterexample ppf = function
  | Cx_livelock path -> Format.fprintf ppf "livelock at %a" pp_path path
  | Cx_violation v -> pp_violation ppf v

let pp_search ppf se =
  Format.fprintf ppf
    "@[<v>rounds=%d evals=%d distinct-digests=%d%a%a@]" se.se_rounds
    se.se_evals se.se_distinct
    (fun ppf -> function
      | None -> ()
      | Some (sched, cx) ->
          Format.fprintf ppf "@,counterexample schedule %S@,%a" sched
            pp_counterexample cx)
    se.se_counterexample
    (fun ppf -> function
      | [] -> ()
      | best ->
          Format.fprintf ppf "@,top schedules:@,%a"
            (Format.pp_print_list (fun ppf (s, fit) ->
                 Format.fprintf ppf "  %8.1f  %s"
                   fit (if s = "" then "(empty)" else s)))
            best)
    se.se_best
