(** The discrete-event simulation engine.

    Runs [n] nodes exchanging messages of a single (per-engine) message type
    over a {!Network} model.  Handlers run to completion at their scheduled
    time; everything is single-threaded and deterministic given the seed.

    Events run in (time, sequence number) order, the sequence number
    breaking ties in scheduling order.  The {!Event_queue} heap does not
    hold one entry per message: a multicast's copies form one sorted
    {e run}, keyed by its earliest copy, and each node's CPU queue is one
    FIFO {e lane}.  Runs and lanes are consumed from the top of the heap in
    place, so events still run in exactly the order a heap with one entry
    per message would give, and the heap holds about one entry per fan-out
    in flight and per busy node instead of one per message in flight.  A
    run's copies take consecutive sequence numbers in transmission order,
    so it stores the first one and packs each copy's transmission index
    into one int with its destination and that destination's incarnation:
    a run costs two words per copy (arrival time and that int), which
    bounds a node's crashes at {!max_crashes}.

    Statistics on message and byte counts are kept per run so experiments can
    report communication complexity alongside throughput and latency. *)

type 'msg t

type stats = {
  mutable events_processed : int;
      (** Events run: every network arrival, self hand-off, CPU-queue
          finish, timer and scheduled action counts once, live or
          quenched. *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable peak_pending : int;
      (** The most entries the event heap has held at once: a run, a lane,
          a single message, a timer or a scheduled action each count one. *)
}

(** [create ~n ~network ~seed ~msg_size ()] builds an engine for [n] nodes.
    [msg_size msg] is the wire size in bytes used for serialization delay and
    byte accounting.  [cpu_cost], when given, prices each network arrival:
    [cpu_cost msg a i] writes the receiver-side processing time of [msg] in
    ms into [a.(i)], a slot of the engine's own float array, so that no
    cost is returned as a boxed float (see
    {!Bft_types.Protocol_intf.S.cpu_cost}).  Each node's handler
    invocations are then serialized on a per-node CPU queue, so processing
    backlogs delay later messages (self-deliveries are free — the sender
    already did that work). *)
val create :
  n:int ->
  network:Network.t ->
  seed:int ->
  msg_size:('msg -> int) ->
  ?cpu_cost:('msg -> float array -> int -> unit) ->
  unit ->
  'msg t

(** Install the message handler for a node.  Nodes without a handler drop
    everything (that is how crashed / silent-Byzantine nodes are modelled). *)
val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit

(** [set_delivery_tap t f] invokes [f ~time ~src ~dst msg] for every message
    delivered to a handler — used by trace tooling and tests; does not
    affect the simulation. *)
val set_delivery_tap :
  'msg t -> (time:float -> src:int -> dst:int -> 'msg -> unit) -> unit

(** [set_link_filter t f] drops a message when [f ~src ~dst] is false.
    Only meaningful before GST in honest runs (the model's channels are
    reliable after GST); used by tests to create partitions and by the
    view-anchored fault interpreter, which gates on the sender's view. *)
val set_link_filter : 'msg t -> (src:int -> dst:int -> bool) -> unit

(** [set_link_windows t w ~rng] applies the time-windowed link faults [w]
    to every non-self message at its send time: a message is dropped when
    {!Link_windows.cut} holds or {!Link_windows.keep} (drawing from [rng])
    does not, and a kept one arrives {!Link_windows.add_delay} ms after the
    network model's delivery time.  A delay can exceed [delta]: fault
    injection uses it for time-windowed asynchrony spikes.  The windows
    read the engine's clock from its own float slot, so a faulted send
    allocates no more than an unfaulted one.  Replaces any earlier window
    set; an empty [w] leaves the message path as in an unfaulted run. *)
val set_link_windows : 'msg t -> Link_windows.t -> rng:Rng.t -> unit

(** [crash t i] takes node [i] down: its handler is detached, its sends are
    suppressed, and all in-flight deliveries, CPU backlog and pending owned
    timers addressed to this incarnation are quenched (they never fire, even
    after recovery).  Idempotent.  Durable state the protocol keeps outside
    the engine (a WAL) is untouched.  Raises [Invalid_argument], changing
    nothing, when node [i] has already crashed {!max_crashes} times. *)
val crash : 'msg t -> int -> unit

(** How many times one node may crash in one engine: 2^20 - 1.  Each crash
    starts an incarnation, and a fan-out run packs the destination's
    incarnation into the 20 bits its slot has left (see above). *)
val max_crashes : int

(** [recover t i] clears the down flag.  The caller is expected to install a
    fresh handler (a node rebuilt from durable state) and start it; timers
    created from now on belong to the new incarnation. *)
val recover : 'msg t -> int -> unit

(** Whether node [i] is currently crashed (between {!crash} and
    {!recover}). *)
val is_down : 'msg t -> int -> bool

(** Current simulated time in ms. *)
val now : 'msg t -> float

(** Number of nodes the engine was created with. *)
val n : 'msg t -> int

(** [send t ~src ~dst msg] hands a message to the network at the current
    time.  Sending to self delivers at the current time (no network). *)
val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [multicast t ~src msg] sends to every node; self-delivery is immediate.
    The egress link serializes the [n - 1] copies in destination order,
    and the network model draws their arrivals in that order, exactly as
    [n - 1] {!send}s would.
    Traffic stats count the [n - 1] network sends — the local self hand-off
    is not serialized or propagated, so it contributes no messages or
    bytes. *)
val multicast : 'msg t -> src:int -> 'msg -> unit

(** [set_timer t delay f] runs [f] after [delay] ms; returns a cancel thunk,
    which cancels [f]'s current arming.  [owner] ties the timer to a node's
    current incarnation: if that node crashes before the timer fires, the
    timer is quenched (also after a later recovery).  Unowned timers (the
    default) always fire.

    An owned timer follows {!Timer_row}'s re-arm contract, in the owner's
    row; a crash drops the row.  A stale arming popped from the heap
    counts in [events_processed] as a cancelled timer does, so event
    order and counts are those of one record per arming.  An unowned
    timer, and under a capture hook every timer, takes a fresh record,
    since the hook's owner holds events. *)
val set_timer : ?owner:int -> 'msg t -> float -> (unit -> unit) -> unit -> unit

(** [schedule_at t time f] runs [f] at absolute [time] (>= now). *)
val schedule_at : 'msg t -> float -> (unit -> unit) -> unit

(** Run until the event queue drains or simulated [until] is passed.  In
    both cases the clock ends at [until] (never earlier): the run nominally
    covered that span, so subsequent [now] / [set_timer] calls act at the
    horizon, not at the last event's time. *)
val run : 'msg t -> until:float -> unit

val stats : 'msg t -> stats

(** {2 Pluggable scheduler}

    An external scheduler takes over event ordering: with a capture hook
    installed, every event that would enter the time-ordered queue — network
    deliveries, timer expiries, scheduled thunks — is handed to the hook
    instead, and the hook's owner decides when (and whether) each one runs
    via {!dispatch}.  The bounded model checker ({!Bft_mc.Checker}) uses
    this to explore arbitrary delivery and firing orders through the exact
    engine, crash/epoch machinery and node wiring the experiments use. *)

(** A captured event: opaque, re-injectable via {!dispatch}. *)
type 'msg pending

(** What a captured event is, for scheduling decisions. *)
type 'msg pending_view =
  | Pending_message of { src : int; dst : int; msg : 'msg }
  | Pending_timer of { owner : int }  (** [-1] = unowned *)
  | Pending_task  (** a [schedule_at] thunk *)

(** [set_capture t f] installs the hook.  From now on nothing reaches the
    internal queue; [f] receives every scheduled event synchronously at the
    point it is created (inside the sending handler's execution). *)
val set_capture : 'msg t -> ('msg pending -> unit) -> unit

val inspect : 'msg pending -> 'msg pending_view

(** Whether dispatching the event would still do anything: false for
    cancelled timers and for events addressed to a crashed incarnation
    (stale epoch).  Dispatching a dead event is a counted no-op. *)
val pending_live : 'msg t -> 'msg pending -> bool

(** Execute a captured event now, exactly as the run loop would have:
    epoch and cancellation checks apply, [events_processed] is counted. *)
val dispatch : 'msg t -> 'msg pending -> unit

(** Move the clock forward to an absolute time (>= now).  External
    schedulers use it to give [now] a monotone logical meaning; raises
    [Invalid_argument] on time travel. *)
val advance_clock : 'msg t -> float -> unit
