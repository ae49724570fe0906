(** The view change every protocol of the suite shares: per-view timeout
    aggregation and the table of timeout certificates a node holds.

    Each timeout message counts once per sender and may report a block
    certificate (Pipelined/Commit Moonshot's lock, Jolteon's high QC).  A
    view's entry keeps the distinct senders and the highest-ranked
    certificate they reported; at a quorum of senders it forms the view's
    TC, exactly once, proving that certificate.  Between the two sits a
    node's own weak-quorum rule, which {!amplify} supports but does not
    decide: Simple Moonshot joins the current view's change at every count
    of at least [f + 1], the others amplify once for a view at or above
    their current one. *)

open Bft_types

type t

(** [create env] aggregates timeouts of [Env.n env] validators, forms a TC
    at [Env.quorum env] distinct senders and reports it through
    [env.probe]. *)
val create : 'msg Env.t -> t

(** [add t ~view ~src cert] counts [src]'s timeout for [view], which
    reported [cert] ([None] when the protocol's timeouts prove none).
    Returns the number of distinct senders counted for [view], or [0] when
    [src] was already counted — and then changes nothing. *)
val add : t -> view:int -> src:int -> Cert.t option -> int

(** [amplify t view] is [true] the first time it is asked for [view] and
    [false] after: a node re-multicasts a view's timeout on a weak quorum
    at most once. *)
val amplify : t -> int -> bool

(** [form_tc t view] is [view]'s TC the first time [view] has a quorum of
    distinct senders — carrying the highest-ranked certificate reported,
    or [None] when no sender reported one — and [None] before and after.
    Emits {!Bft_types.Probe.Tc_formed} when it forms. *)
val form_tc : t -> int -> Tc.t option

(** [hold t tc] files [tc]; [false] when a TC for its view is already
    held. *)
val hold : t -> Tc.t -> bool

(** {2 Model-checker digests}

    Both combine per-view digests by addition, so they are independent of
    hashtable insertion order. *)

(** The aggregation entries.  Senders counted after a view's TC formed
    are behaviourally inert (late timeouts only feed deduplication), so
    neither they nor their certificates enter the digest — post-quorum
    arrival orders collapse. *)
val entries_digest : t -> int64

(** The held TCs. *)
val tcs_digest : t -> int64
