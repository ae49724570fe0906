module FS = Bft_faults.Fault_schedule
module W = Bft_sim.Link_windows

type clock = Wall_ms | Views

type wall_event =
  | Wall_crash of int
  | Wall_recover of int
  | Wall_edge of Bft_obs.Trace.fault

type t = {
  clock : clock;
  windows : W.t; (* Wall_ms link windows; empty under Views *)
  logical : Bft_faults.Logical.t option; (* Views interpretation *)
  rngs : Bft_sim.Rng.t array; (* per-sender loss draws *)
  (* Per-sender time slots for the window queries: [2 src] holds the
     clock, [2 src + 1] a delay sum.  Each sender is one thread, so no two
     threads share a slot. *)
  times : float array;
  link_delay_ms : float;
  heal_windows : (float * float) list;
  active : bool;
}

let none =
  {
    clock = Wall_ms;
    windows = W.empty;
    logical = None;
    rngs = [||];
    times = [||];
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
    let windows, logical, heal_windows =
      match clock with
      | Views ->
          (W.empty, Some (Bft_faults.Logical.of_schedule_exn ~n sched), [])
      | Wall_ms ->
          let heal_windows =
            List.map (fun h -> (h, h +. heal_bound_ms)) (FS.heal_times sched)
          in
          (Bft_faults.Overlay.compile ~n sched, None, heal_windows)
    in
    {
      clock;
      windows;
      logical;
      rngs = Array.init n (fun i -> Bft_sim.Rng.create (seed lxor (i * 7919)));
      times = Array.make (2 * n) 0.;
      link_delay_ms;
      heal_windows;
      active = true;
    }

let clock t = t.clock

let verdict t ~src ~dst ~now_ms ~src_view =
  if (not t.active) || src = dst then `Pass
  else
    match t.logical with
    | Some lg ->
        if Bft_faults.Logical.cut lg ~src ~src_view ~dst then `Drop else `Pass
    | None ->
        let now = 2 * src in
        t.times.(now) <- now_ms;
        if
          W.cut t.windows ~src ~dst t.times now
          || not (W.keep t.windows t.rngs.(src) t.times now)
        then `Drop
        else `Pass

let delay_ms t ~src ~now_ms =
  if not t.active then 0.
  else begin
    let now = 2 * src in
    t.times.(now) <- now_ms;
    t.times.(now + 1) <- 0.;
    W.add_delay t.windows t.times ~now (now + 1);
    t.link_delay_ms +. t.times.(now + 1)
  end

let rec in_windows now = function
  | [] -> false
  | (a, b) :: rest -> (now >= a && now <= b) || in_windows now rest

let in_heal_window t ~now_ms = in_windows now_ms t.heal_windows

let logical t = t.logical
