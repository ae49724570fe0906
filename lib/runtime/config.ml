type latency_spec = Wan | Uniform of { base : float; jitter : float }

type t = {
  protocol : Protocol_kind.t;
  n : int;
  f_actual : int;
  schedule : Bft_workload.Schedules.t;
  payload_bytes : int;
  duration_ms : float;
  delta_ms : float;
  gst_ms : float;
  pre_gst_extra_ms : float;
  latency : latency_spec;
  bandwidth_bps : float option;
  model_cpu : bool;
  duplicate_prob : float;
  seed : int;
  byzantine : (int * Byzantine.t) list;
  faults : Bft_faults.Fault_schedule.t;
  logical_faults : bool;
  clients : Bft_mempool.Spec.t option;
}

let default protocol ~n =
  {
    protocol;
    n;
    f_actual = 0;
    schedule = Bft_workload.Schedules.Round_robin;
    payload_bytes = 0;
    duration_ms = 60_000.;
    delta_ms = 500.;
    gst_ms = 0.;
    pre_gst_extra_ms = 0.;
    latency = Wan;
    bandwidth_bps = Some Bft_workload.Regions.bandwidth_bps;
    model_cpu = true;
    duplicate_prob = 0.;
    seed = 1;
    byzantine = [];
    faults = Bft_faults.Fault_schedule.empty;
    logical_faults = false;
    clients = None;
  }

let local protocol ~n =
  {
    (default protocol ~n) with
    latency = Uniform { base = 10.; jitter = 5. };
    bandwidth_bps = None;
    model_cpu = false;
    delta_ms = 50.;
    duration_ms = 10_000.;
  }

let validate t =
  if t.n < 1 then invalid_arg "Config: n < 1";
  if t.f_actual < 0 || t.f_actual > (t.n - 1) / 3 then
    invalid_arg "Config: f_actual out of range";
  if t.payload_bytes < 0 then invalid_arg "Config: negative payload";
  if t.duration_ms <= 0. then invalid_arg "Config: non-positive duration";
  if t.delta_ms <= 0. then invalid_arg "Config: non-positive delta";
  if t.gst_ms < 0. || t.pre_gst_extra_ms < 0. then
    invalid_arg "Config: negative gst/pre_gst_extra";
  if t.duplicate_prob < 0. || t.duplicate_prob > 1. then
    invalid_arg "Config: duplicate_prob outside [0, 1]";
  let faulty_ids = List.map fst t.byzantine in
  List.iter
    (fun i ->
      if i < 0 || i >= t.n then invalid_arg "Config: faulty node out of range";
      if Bft_workload.Schedules.is_byzantine ~n:t.n ~f':t.f_actual i then
        invalid_arg "Config: faulty node overlaps silent Byzantine set")
    faulty_ids;
  let distinct = List.sort_uniq compare faulty_ids in
  let f = (t.n - 1) / 3 in
  if List.length distinct + t.f_actual > f then
    invalid_arg "Config: more faulty nodes than the threat model's f";
  (* The fault schedule shares the same budget: at every instant, crashed +
     Byzantine (silent and behavioural) nodes must not exceed f.  Crash
     targets must be honest — the silent set has no node to crash and a
     behavioural Byzantine node crashing would double-count. *)
  let silent =
    List.filter
      (Bft_workload.Schedules.is_byzantine ~n:t.n ~f':t.f_actual)
      (List.init t.n (fun i -> i))
  in
  Bft_faults.Fault_schedule.validate ~n:t.n ~f
    ~byzantine:(List.sort_uniq compare (silent @ distinct))
    t.faults;
  if t.logical_faults then
    (match Bft_faults.Logical.of_schedule ~n:t.n t.faults with
    | Ok _ -> ()
    | Error e -> invalid_arg ("Config: bad logical schedule: " ^ e));
  Option.iter Bft_mempool.Spec.validate t.clients


let pp ppf t =
  Format.fprintf ppf
    "%a n=%d f'=%d sched=%s p=%dB dur=%.0fms delta=%.0fms seed=%d"
    Protocol_kind.pp t.protocol t.n t.f_actual
    (Bft_workload.Schedules.name t.schedule)
    t.payload_bytes t.duration_ms t.delta_ms t.seed
