(** Allocation-free open-loop client arrival generator.

    A deterministic stream of command submissions: arrival [s] (its global
    sequence number) is issued by a client that is a pure function of [s]
    and the seed, at the time {!next_time_into} reports — Poisson
    interarrivals at the spec's
    aggregate rate under the [Wall] clock, or a fixed [per_view] quota
    anchored to view numbers under [Views].  The stream is a pure function
    of the spec's seed, so two instances built from the same spec produce
    identical streams: one serves leaders as the watermark observer, the
    other serves the commit-order replayer, and the live TCP cluster
    rebuilds the very same stream on every validator.

    Open loop: clients never wait for commits before submitting, which is
    what makes sustained-saturation sweeps meaningful.  The generator keeps
    its state in two ints and a float array slot and draws from a
    native-int mixer, and {!next_time_into} hands the time over in a slot:
    advancing through millions of arrivals allocates nothing (pinned by
    test_mempool's "count_until allocates nothing"). *)

type t

val create : Spec.t -> t

(** Sequence number of the next (not yet issued) arrival = number issued so
    far. *)
val seq : t -> int

(** Issuer of the next arrival, in [0, clients). *)
val next_client : t -> int

(** [next_time_into t times i] writes the next arrival's time to
    [times.(i)]: milliseconds ([Wall]) or the view slot in which it
    becomes visible ([Views]).  A float returned across a module boundary
    would be boxed. *)
val next_time_into : t -> float array -> int -> unit

val advance : t -> unit

(** [count_until t ~now] advances past every arrival with time ≤ [now] and
    returns the resulting {!seq} — the leader-side watermark.  [now] must be
    monotone across calls. *)
val count_until : t -> now:float -> int
