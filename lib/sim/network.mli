(** The partially synchronous network model.

    Message delay decomposes into:

    - serialization delay: a per-node egress link of finite bandwidth is
      occupied for [size / bandwidth] per message, FIFO.  Multicasting a
      large block to [n - 1] peers therefore takes proportionally longer
      than multicasting a small vote — this is what makes large messages
      (beta) slower than small ones (rho) in the modified partially
      synchronous model of Section V;
    - propagation latency from the {!Latency} model;
    - before GST, an adversarial extra delay, capped so that every message
      is delivered by [GST + Delta] (Dwork et al.'s model).

    [delta] is the bound the protocols are configured with; the constructor
    checks it against what the model can actually produce. *)

type t = private {
  latency : Latency.t;
  bandwidth_bps : float option;  (** Per-node egress; [None] = infinite. *)
  gst : float;  (** Global stabilization time, ms. *)
  delta : float;  (** Delivery bound after GST, ms. *)
  pre_gst_extra : float;
      (** Upper bound of the adversarial uniform extra delay before GST. *)
  duplicate_prob : float;
      (** Probability that a delivered message is delivered a second time
          shortly after (network-level duplication; protocols must be
          idempotent).  0 by default.  Message loss is not modelled here:
          fault schedules drop messages through the engine's link
          windows. *)
}

(** Raises [Invalid_argument] when [delta] cannot bound the post-GST delays
    the latency model produces (serialization delay excluded: the protocol
    designer picks [delta] for the message sizes they expect). *)
val make :
  ?bandwidth_bps:float ->
  ?gst:float ->
  ?pre_gst_extra:float ->
  ?duplicate_prob:float ->
  latency:Latency.t ->
  delta:float ->
  unit ->
  t

(** [delivery_into t rng ~egress ~src ~dst ~size times i] hands one
    message of [size] bytes from [src] to the network at time [times.(i)]
    and replaces [times.(i)] with its arrival time at [dst].  [egress] is
    the per-node egress-busy-until array: the message waits for
    [egress.(src)], occupies the link for [size] bytes' serialization
    time at the egress bandwidth, and [egress.(src)] is advanced to when
    the link frees.  Propagation is drawn with {!Latency.add_sample}.
    Times travel through array slots because a float passed between
    modules is boxed; this is the engine's per-message path and allocates
    nothing after GST. *)
val delivery_into :
  t ->
  Rng.t ->
  egress:float array ->
  src:int ->
  dst:int ->
  size:int ->
  float array ->
  int ->
  unit
