module FS = Bft_faults.Fault_schedule

type clock = Wall_ms | Views

type wall_event =
  | Wall_crash of int
  | Wall_recover of int
  | Wall_edge of Bft_obs.Trace.fault

type t = {
  clock : clock;
  overlay : Bft_faults.Overlay.t option; (* Wall_ms link windows *)
  logical : Bft_faults.Logical.t option; (* Views interpretation *)
  rngs : Bft_sim.Rng.t array; (* per-sender loss draws *)
  link_delay_ms : float;
  heal_windows : (float * float) list;
  active : bool;
}

let none =
  {
    clock = Wall_ms;
    overlay = None;
    logical = None;
    rngs = [||];
    link_delay_ms = 0.;
    heal_windows = [];
    active = false;
  }

let wall_events sched =
  List.concat_map
    (function
      | FS.Crash { node; at } -> [ (at, Wall_crash node) ]
      | FS.Recover { node; at } -> [ (at, Wall_recover node) ]
      | FS.Partition { from_; until; _ } ->
          [
            (from_, Wall_edge Bft_obs.Trace.Partition_start);
            (until, Wall_edge Bft_obs.Trace.Partition_heal);
          ]
      | FS.Link_loss { from_; until; _ } ->
          [
            (from_, Wall_edge Bft_obs.Trace.Loss_start);
            (until, Wall_edge Bft_obs.Trace.Loss_end);
          ]
      | FS.Delay_spike { from_; until; _ } ->
          [
            (from_, Wall_edge Bft_obs.Trace.Delay_start);
            (until, Wall_edge Bft_obs.Trace.Delay_end);
          ])
    (FS.sorted sched)
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

let compile ~n ~clock ~seed ~link_delay_ms ~heal_bound_ms sched =
  if FS.is_empty sched && link_delay_ms <= 0. then none
  else
    let sched = FS.sorted sched in
    let overlay, logical, heal_windows =
      match clock with
      | Views ->
          (None, Some (Bft_faults.Logical.of_schedule_exn ~n sched), [])
      | Wall_ms ->
          let heal_windows =
            List.map (fun h -> (h, h +. heal_bound_ms)) (FS.heal_times sched)
          in
          (Some (Bft_faults.Overlay.compile ~n sched), None, heal_windows)
    in
    {
      clock;
      overlay;
      logical;
      rngs = Array.init n (fun i -> Bft_sim.Rng.create (seed lxor (i * 7919)));
      link_delay_ms;
      heal_windows;
      active = true;
    }

let clock t = t.clock

let verdict t ~src ~dst ~now_ms ~src_view =
  if (not t.active) || src = dst then `Pass
  else
    match (t.overlay, t.logical) with
    | Some ov, _ ->
        if Bft_faults.Overlay.cut ov ~src ~dst ~now:now_ms then `Drop
        else
          let p = Bft_faults.Overlay.loss_prob ov ~now:now_ms in
          if p > 0. && Bft_sim.Rng.float t.rngs.(src) 1. < p then `Drop
          else `Pass
    | None, Some lg ->
        if Bft_faults.Logical.cut lg ~src ~src_view ~dst then `Drop else `Pass
    | None, None -> `Pass

let delay_ms t ~now_ms =
  if not t.active then 0.
  else
    t.link_delay_ms
    +.
    match t.overlay with
    | Some ov -> Bft_faults.Overlay.extra_delay ov ~now:now_ms
    | None -> 0.

let in_heal_window t ~now_ms =
  List.exists (fun (a, b) -> now_ms >= a && now_ms <= b) t.heal_windows

let logical t = t.logical
