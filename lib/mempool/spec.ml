type clock = Wall | Views

type t = {
  clients : int;
  rate_per_s : float;
  per_view : int;
  clock : clock;
  lanes : int;
  lane_capacity : int;
  backlog_capacity : int;
  max_batch : int;
  seed : int;
}

let default =
  {
    clients = 1_000_000;
    rate_per_s = 5_000.;
    per_view = 64;
    clock = Wall;
    lanes = 8;
    lane_capacity = 4_096;
    backlog_capacity = 4_096;
    max_batch = 512;
    seed = 1;
  }

let validate t =
  if t.clients <= 0 then invalid_arg "Spec.validate: clients must be positive";
  if t.lanes <= 0 then invalid_arg "Spec.validate: lanes must be positive";
  if t.lane_capacity <= 0 then
    invalid_arg "Spec.validate: lane_capacity must be positive";
  if t.backlog_capacity <= 0 then
    invalid_arg "Spec.validate: backlog_capacity must be positive";
  if t.max_batch <= 0 then invalid_arg "Spec.validate: max_batch must be positive";
  (match t.clock with
  | Wall ->
      if t.rate_per_s <= 0. then
        invalid_arg "Spec.validate: rate_per_s must be positive"
  | Views ->
      if t.per_view <= 0 then
        invalid_arg "Spec.validate: per_view must be positive")

let pp ppf t =
  Format.fprintf ppf
    "clients=%d %s lanes=%d cap=%d backlog=%d max_batch=%d seed=%d"
    t.clients
    (match t.clock with
    | Wall -> Printf.sprintf "rate=%.0f/s" t.rate_per_s
    | Views -> Printf.sprintf "per_view=%d" t.per_view)
    t.lanes t.lane_capacity t.backlog_capacity t.max_batch t.seed
