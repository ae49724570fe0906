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
      link_delay_ms;
      heal_windows;
      active = true;
    }

let clock t = t.clock

let verdict t ~src ~dst ~src_view clock now =
  if (not t.active) || src = dst then `Pass
  else
    match t.logical with
    | Some lg ->
        if Bft_faults.Logical.cut lg ~src ~src_view ~dst then `Drop else `Pass
    | None ->
        if
          W.cut t.windows ~src ~dst clock now
          || not (W.keep t.windows t.rngs.(src) clock now)
        then `Drop
        else `Pass

let add_delay t clock ~now i =
  if t.active then begin
    W.add_delay t.windows clock ~now i;
    clock.(i) <- clock.(i) +. t.link_delay_ms
  end

(* The time stays in its slot: a float argument would be boxed. *)
let rec in_windows clock now = function
  | [] -> false
  | (a, b) :: rest ->
      (clock.(now) >= a && clock.(now) <= b) || in_windows clock now rest

let in_heal_window t clock now = in_windows clock now t.heal_windows

let logical t = t.logical
