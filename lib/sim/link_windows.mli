(** Time-windowed link faults: partitions, probabilistic loss and delay
    spikes, each active on [[from_, until)].

    A window set is built once per run ({!Bft_faults.Overlay.compile} builds
    it from a fault schedule) and then queried for every message, by the
    simulator's {!Engine} and by the socket transport's fault plane alike.
    The queries take the current time from a float array slot, not as an
    argument, and write times back the same way: a float crossing a
    function boundary is boxed, so a query allocates nothing (pinned by
    test_sim's "windows allocate nothing").  Each query is O(#windows). *)

type t

(** No window: {!cut} is false, {!keep} draws nothing and is true, and
    {!add_delay} adds 0. *)
val empty : t

(** Whether [t] has no window of any kind. *)
val is_empty : t -> bool

(** [partition t ~from_ ~until ~group_of] adds a partition window: while it
    is active, [src] and [dst] are cut when [group_of.(src) <> group_of.(dst)].
    Windows keep the order they were added in. *)
val partition : t -> from_:float -> until:float -> group_of:int array -> t

(** [loss t ~from_ ~until ~prob] adds a window that drops each message with
    probability [prob]. *)
val loss : t -> from_:float -> until:float -> prob:float -> t

(** [delay t ~from_ ~until ~extra_ms] adds a window that delays each message
    by [extra_ms]. *)
val delay : t -> from_:float -> until:float -> extra_ms:float -> t

(** [cut t ~src ~dst times i] is true when some partition window active at
    [times.(i)] places [src] and [dst] in different groups. *)
val cut : t -> src:int -> dst:int -> float array -> int -> bool

(** [keep t rng times i] is false when the message is lost.  The loss
    windows active at [times.(i)] combine as independent losses,
    [p = 1 - prod (1 - p_i)]; when [p > 0] one draw [u] from [rng]
    ({!Rng.float} [rng 1.]) decides, and the message is kept when [u >= p].
    No window active (or [p <= 0]): true, and [rng] is not drawn. *)
val keep : t -> Rng.t -> float array -> int -> bool

(** [add_delay t times ~now i] adds to [times.(i)] the sum of the extra
    delays of the delay windows active at [times.(now)]. *)
val add_delay : t -> float array -> now:int -> int -> unit
