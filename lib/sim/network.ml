type t = {
  latency : Latency.t;
  bandwidth_bps : float option;
  gst : float;
  delta : float;
  pre_gst_extra : float;
  duplicate_prob : float;
  drop_prob : float;
}

let make ?bandwidth_bps ?(gst = 0.) ?(pre_gst_extra = 0.) ?(duplicate_prob = 0.)
    ?(drop_prob = 0.) ~latency ~delta () =
  if delta <= 0. then invalid_arg "Network.make: delta must be positive";
  if Latency.upper_bound latency > delta then
    invalid_arg "Network.make: delta below the latency model's upper bound";
  if gst < 0. || pre_gst_extra < 0. then
    invalid_arg "Network.make: negative gst or pre_gst_extra";
  if duplicate_prob < 0. || duplicate_prob > 1. then
    invalid_arg "Network.make: duplicate_prob outside [0, 1]";
  if drop_prob < 0. || drop_prob > 1. then
    invalid_arg "Network.make: drop_prob outside [0, 1]";
  { latency; bandwidth_bps; gst; delta; pre_gst_extra; duplicate_prob;
    drop_prob }

let[@inline] serialization_ms t ~size =
  match t.bandwidth_bps with
  | None -> 0.
  | Some bps -> float_of_int size *. 8. /. bps *. 1000.

(* The simulator's per-message path.  Under the dev profile's [-opaque] a
   float passed to or returned from another module is boxed, so no float
   crosses this function's boundary: the send time comes in and the
   arrival time goes out through [times.(i)], and [egress.(src)] is updated
   in place.  Times are finite and non-negative, so a two-way compare
   stands in for [Float.max], which is too large to inline. *)
let delivery_into t rng ~egress ~src ~dst ~size times i =
  let now = times.(i) and free = egress.(src) in
  let start = if now < free then free else now in
  let egress_end = start +. serialization_ms t ~size in
  egress.(src) <- egress_end;
  times.(i) <- egress_end;
  Latency.add_sample t.latency rng ~src ~dst times i;
  if start < t.gst && t.pre_gst_extra <> 0. then begin
    (* Adversarial extra delay, but the partially synchronous model still
       requires delivery within Delta of max(send time, GST). *)
    let base = times.(i) in
    let delayed = base +. Rng.float rng t.pre_gst_extra in
    times.(i) <- Float.min delayed (Float.max base (t.gst +. t.delta))
  end
