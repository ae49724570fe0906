(** Link propagation-latency models.

    Latencies are one-way, in milliseconds, sampled per message.  The
    [Matrix] model reproduces the paper's WAN: a table of observed
    inter-region latencies (Table II, 90th percentile) plus a region
    assignment; samples are drawn so that the table value sits near the 90th
    percentile of the sampled distribution. *)

type t =
  | Uniform of { base : float; jitter : float }
      (** [base + U[0, jitter)] for every ordered pair. *)
  | Matrix of {
      table : float array array;  (** [table.(src_region).(dst_region)]. *)
      region_of : int -> int;  (** Node id to region index. *)
    }

(** [add_sample t rng ~src ~dst times i] draws the propagation latency of
    one message from [src] to [dst] and adds it to [times.(i)].  The
    result goes into a float array slot, not a return value, so the draw
    allocates nothing ({!Network.delivery_into} passes the message's
    egress-done time in the slot).  Raises [Invalid_argument] when [i] is
    out of bounds. *)
val add_sample : t -> Rng.t -> src:int -> dst:int -> float array -> int -> unit

(** Largest latency the model can produce (used to sanity-check Delta). *)
val upper_bound : t -> float
