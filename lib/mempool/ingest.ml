open Bft_types

type lat_summary = {
  samples : int;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

type summary = {
  submitted : int;
  admitted : int;
  deferred : int;
  rejected : int;
  committed : int;
  pending : int;
  backlogged : int;
  shortfall : int;
  batches : int;
  watermark : int;
  dissemination_bytes : int;
  lat : lat_summary;
  per_lane_committed : int array;
}

type batch_report = {
  count : int;
  pool_pending : int;
  cum_p50_ms : float;
  cum_p99_ms : float;
}

type t = {
  spec : Spec.t;
  n : int;
  view_ms : float;
  wm : Arrival.t;
  replay : Arrival.t;
  pool : Mempool.t;
  memo : (int, Payload.t) Hashtbl.t;
  hist : Hist.t;
  mutable shortfall : int;
  mutable batches : int;
  mutable dissemination_bytes : int;
  on_command :
    (seq:int -> lane:int -> submit_ms:float -> commit_ms:float -> unit) option;
  (* Times of the replay in flight, passed to {!Arrival}, {!Mempool} and
     {!Hist} in these slots rather than as (boxed) floats. *)
  times : float array;
  (* [drawn t], built once: [Mempool.drain]'s callback. *)
  on_drawn : seq:int -> lane:int -> unit;
}

let arrival_slot = 0 (* a replayed arrival's submit time *)
let commit_slot = 1 (* the committed block's time *)
let submit_slot = 2 (* a drawn command's submit time *)
let latency_slot = 3 (* its end-to-end latency *)

(* A command drawn into the committed batch: record its latency. *)
let drawn t ~seq ~lane =
  let times = t.times in
  let at = times.(submit_slot) in
  let submit_ms =
    match t.spec.Spec.clock with Spec.Wall -> at | Spec.Views -> at *. t.view_ms
  in
  let lat = times.(commit_slot) -. submit_ms in
  times.(latency_slot) <- (if lat < 0. then 0. else lat);
  Hist.add_from t.hist times latency_slot;
  match t.on_command with
  | None -> ()
  | Some f -> f ~seq ~lane ~submit_ms ~commit_ms:times.(commit_slot)

let create ?on_command ~spec ~n ~view_ms () =
  Spec.validate spec;
  let wm = Arrival.create spec and replay = Arrival.create spec in
  let pool =
    Mempool.create ~lanes:spec.Spec.lanes ~lane_capacity:spec.Spec.lane_capacity
      ~backlog_capacity:spec.Spec.backlog_capacity
  in
  let rec t =
    {
      spec;
      n;
      view_ms;
      wm;
      replay;
      pool;
      memo = Hashtbl.create 64;
      hist = Hist.create ();
      shortfall = 0;
      batches = 0;
      dissemination_bytes = 0;
      on_command;
      times = Array.make 4 0.;
      on_drawn = (fun ~seq ~lane -> drawn t ~seq ~lane);
    }
  in
  t

let spec t = t.spec

(* Chain cursor implied by a parent block: how many mempool commands the
   parent and its ancestors consumed, and the watermark the parent advertised.
   Non-batch parents (genesis, parametric payloads) anchor the base case. *)
let parent_anchor (parent : Block.t) =
  let p = parent.Block.payload in
  if Payload.is_batch p then
    (Payload.batch_cursor p + Payload.item_count p, Payload.batch_watermark p)
  else (0, 0)

let cut t ~view ~parent ~now =
  match Hashtbl.find_opt t.memo view with
  | Some p -> p
  | None ->
      let cursor, parent_wm = parent_anchor parent in
      let observed =
        match t.spec.Spec.clock with
        | Spec.Wall -> Arrival.count_until t.wm ~now
        | Spec.Views -> t.spec.Spec.per_view * view
      in
      (* Watermarks are monotone along the chain; the clamp keeps the packed
         id inside the wire codec's range on absurdly long streams. *)
      let wm = max observed parent_wm in
      let wm = min wm Payload.batch_field_max in
      let count = max 0 (min t.spec.Spec.max_batch (wm - cursor)) in
      let p = Payload.batch ~cursor ~watermark:wm ~count in
      Hashtbl.replace t.memo view p;
      p

let on_quorum_commit t ~payload ~time =
  if not (Payload.is_batch payload) then 0
  else begin
    let wm = Payload.batch_watermark payload in
    let count = Payload.item_count payload in
    let times = t.times in
    (* Replicate the mempool state machine: ingest every arrival the batch's
       watermark covers, in stream order, through admission control. *)
    while Arrival.seq t.replay < wm do
      let seq = Arrival.seq t.replay in
      let client = Arrival.next_client t.replay in
      Arrival.next_time_into t.replay times arrival_slot;
      Arrival.advance t.replay;
      match Mempool.submit t.pool ~client ~seq times arrival_slot with
      | Mempool.Admitted | Mempool.Deferred ->
          (* Client-to-validator dissemination: each accepted command reaches
             all n validators, off the ordering path. *)
          t.dissemination_bytes <-
            t.dissemination_bytes + (Payload.item_size * t.n)
      | Mempool.Rejected -> ()
    done;
    times.(commit_slot) <- time;
    let drained = Mempool.drain t.pool ~count times submit_slot ~f:t.on_drawn in
    t.batches <- t.batches + 1;
    t.shortfall <- t.shortfall + (count - drained);
    drained
  end

let batch_report t ~count =
  {
    count;
    pool_pending = Mempool.pending t.pool;
    cum_p50_ms = Hist.quantile t.hist 0.50;
    cum_p99_ms = Hist.quantile t.hist 0.99;
  }

let summary t =
  let c = Mempool.counters t.pool in
  {
    submitted = c.Mempool.submitted;
    admitted = c.Mempool.admitted;
    deferred = c.Mempool.deferred;
    rejected = c.Mempool.rejected;
    committed = c.Mempool.committed;
    pending = Mempool.pending t.pool;
    backlogged = Mempool.backlogged t.pool;
    shortfall = t.shortfall;
    batches = t.batches;
    watermark = Arrival.seq t.replay;
    dissemination_bytes = t.dissemination_bytes;
    lat =
      {
        samples = Hist.count t.hist;
        mean_ms = Hist.mean t.hist;
        p50_ms = Hist.quantile t.hist 0.50;
        p90_ms = Hist.quantile t.hist 0.90;
        p99_ms = Hist.quantile t.hist 0.99;
        max_ms = Hist.max_value t.hist;
      };
    per_lane_committed = Mempool.committed_per_lane t.pool;
  }

let pp_counts ppf s =
  Format.fprintf ppf
    "@[<v>submitted        : %d@,\
     admitted         : %d (deferred %d, rejected %d)@,\
     committed        : %d (pending %d, backlogged %d, shortfall %d)@,\
     batches          : %d (watermark %d)@,\
     dissemination    : %.2f MiB@]"
    s.submitted s.admitted s.deferred s.rejected s.committed s.pending
    s.backlogged s.shortfall s.batches s.watermark
    (float_of_int s.dissemination_bytes /. 1048576.)

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%a@,\
     client latency   : p50 %.1f ms  p90 %.1f ms  p99 %.1f ms  max %.1f ms \
     (mean %.1f, %d samples)@]"
    pp_counts s s.lat.p50_ms s.lat.p90_ms s.lat.p99_ms s.lat.max_ms
    s.lat.mean_ms s.lat.samples
