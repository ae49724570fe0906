(* Sub-second chaos smoke for the live TCP cluster, wired into the
   default @runtest alias via @net-chaos-smoke.

   Runs a 4-node commit-moonshot cluster in threads mode with one
   wall-clock crash/recover cycle and asserts the cluster heals: the
   victim restarts at least once, every node reaches the block target,
   the committed chains agree on a common prefix, and the liveness
   monitor sees the victim catch up.  Fast by construction — a small
   block target, a tight delta and light link pacing keep the whole run
   well under a second. *)

module FS = Bft_faults.Fault_schedule
module Net = Bft_runtime.Net_harness
module Tcp = Bft_net.Tcp

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("FAIL " ^ s); exit 1) fmt

let () =
  let protocol = Bft_runtime.Protocol_kind.Commit_moonshot in
  let n = 4 and blocks = 30 and victim = 1 in
  let faults =
    match FS.of_string "crash@80:1;recover@260:1" with
    | Ok f -> f
    | Error e -> fail "bad schedule: %s" e
  in
  let cfg =
    {
      (Net.config protocol ~n ~blocks) with
      Tcp.delta_ms = 150.;
      link_delay_ms = 3.;
      faults;
      timeout_ms = 20_000.;
    }
  in
  let r = Net.run protocol cfg in
  if r.Tcp.outcome <> Tcp.Completed then fail "cluster timed out";
  if not r.Tcp.reached_target then fail "block target not reached";
  if r.Tcp.nodes.(victim).Tcp.restarts < 1 then
    fail "victim node %d never restarted" victim;
  (match Net.check r ~target:blocks with
  | Ok () -> ()
  | Error e -> fail "chaos check: %s" e);
  let report = Net.net_liveness r ~delta:cfg.Tcp.delta_ms in
  (match report.Bft_obs.Liveness.recoveries with
  | [ rec_ ] when rec_.Bft_obs.Liveness.node = victim ->
      if rec_.Bft_obs.Liveness.caught_up_at_ms = None then
        fail "victim recovered but never caught up"
  | rs -> fail "expected one recovery of node %d, saw %d" victim
            (List.length rs));
  Printf.printf
    "net-chaos-smoke: OK (%d blocks, node %d crashed and recovered, %.0f ms)\n"
    blocks victim r.Tcp.wall_ms
