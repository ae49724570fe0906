type stats = {
  mutable events_processed : int;
  mutable messages_sent : int;
  mutable bytes_sent : int;
}

(* Message traffic — the O(n^2)-per-view hot path — is scheduled as pooled
   mutable cells carrying (src, dst, dst_epoch, msg), so steady-state send
   traffic reuses flat records instead of allocating one block per send:
   when a message event executes, its cell returns to a per-engine free
   stack and the next [send] claims it back.  Each cell is allocated
   together with its [Msg] wrapper (tied by [c_ev]), so re-enqueueing costs
   zero allocations.  Timers and one-off scheduled actions are inherently
   code, so those arms keep a closure.

   A [Batch] is one heap entry standing for a whole multicast fan-out whose
   copies all arrive at the same instant (uniform latency, no jitter, no
   bandwidth): destinations are packed into an int array and delivered in
   ascending order, which is exactly the order the per-destination events
   would have popped in (same time, consecutive seqs).  This turns the
   O(n log n) heap traffic of a fan-out into O(log n).

   Message cells additionally carry the destination's incarnation epoch at
   enqueue time: crashing a node bumps its epoch, so in-flight events
   addressed to the previous incarnation are dropped on execution instead
   of resurrecting state the crash was supposed to lose. *)
type 'msg event =
  | Msg of 'msg cell
  | Batch of 'msg batch
  | Timer of timer
  | Thunk of (unit -> unit)

and 'msg cell = {
  mutable c_src : int;
  mutable c_dst : int;
  mutable c_epoch : int;
  (* [true]: hand to the handler (CPU queue already paid, or not modelled);
     [false]: network arrival — run through [dst]'s serial CPU queue. *)
  mutable c_deliver : bool;
  mutable c_msg : 'msg;
  c_ev : 'msg event;  (* this cell's own [Msg] wrapper, allocated once *)
}

and 'msg batch = {
  mutable b_src : int;
  mutable b_msg : 'msg;
  mutable b_count : int;
  mutable b_slots : int array;  (* [(epoch lsl slot_bits) lor dst] *)
  b_ev : 'msg event;
}

and timer = {
  mutable cancelled : bool;
  owner : int;  (* -1 = unowned; survives crashes *)
  epoch : int;
  action : unit -> unit;
}

(* Destination index width inside a batch slot; the epoch occupies the bits
   above.  Bounds n at 2^21 nodes, far past any simulated world. *)
let slot_bits = 21
let slot_mask = (1 lsl slot_bits) - 1

type 'msg pending = 'msg event

type 'msg pending_view =
  | Pending_message of { src : int; dst : int; msg : 'msg }
  | Pending_timer of { owner : int }
  | Pending_task

type 'msg t = {
  n : int;
  network : Network.t;
  queue : 'msg event Event_queue.t;
  handlers : (src:int -> 'msg -> unit) array;
  net_rng : Rng.t;
  egress_free : float array;
  cpu_free : float array;
  msg_size : 'msg -> int;
  cpu_cost : ('msg -> float) option;
  (* [times.(clock_slot)] is the simulated time; [times.(time_slot)] carries
     one event time to or from {!Network} and {!Event_queue}.  A mutable
     float field of this mixed record would be stored boxed (one
     allocation per clock tick), and a float passed between modules is
     boxed too, so times live in this unboxed array instead. *)
  times : float array;
  (* Fault state: [down.(i)] quenches node [i]'s sends, deliveries and
     timers; [epochs.(i)] counts its incarnations so events and timers from
     before a crash stay dead after recovery. *)
  down : bool array;
  epochs : int array;
  (* Free stacks for message cells and fan-out batches.  The engine is
     single-threaded, so one pool serves all nodes; it grows to the
     steady-state number of in-flight messages and then every send is
     allocation-free.  Pooling is disabled under a capture hook — the
     hook's owner holds events across dispatches. *)
  mutable cell_pool : 'msg cell array;
  mutable cell_pool_len : int;
  mutable batch_pool : 'msg batch array;
  mutable batch_pool_len : int;
  (* The filter, link windows and tap default to no-ops; the [_installed]
     flags let the per-message path skip them entirely in the common
     uninstrumented, unpartitioned run.  The windows read the time from
     [times.(clock_slot)], and their loss draws come from [window_rng]. *)
  mutable filter : src:int -> dst:int -> bool;
  mutable filter_installed : bool;
  mutable windows : Link_windows.t;
  mutable window_rng : Rng.t;
  mutable windows_installed : bool;
  mutable tap : time:float -> src:int -> dst:int -> 'msg -> unit;
  mutable tap_installed : bool;
  (* An external scheduler: when installed, every event that would enter the
     time-ordered queue is handed to the hook instead, and the hook's owner
     decides when (and whether) to [dispatch] it.  This is what lets the
     model checker explore arbitrary delivery/firing orders through the same
     engine the experiments run on. *)
  mutable capture : ('msg event -> unit) option;
  mutable capture_installed : bool;
  stats : stats;
}

let clock_slot = 0
let time_slot = 1
let[@inline] clock t = Array.unsafe_get t.times clock_slot
let[@inline] set_clock t time = Array.unsafe_set t.times clock_slot time

(* [Float.max] handles NaN and signed zeros and is too large to inline, so
   calling it boxes both arguments and its result.  Clock and queue times
   are finite and non-negative, where a two-way compare is equivalent. *)
let[@inline] fmax (a : float) (b : float) = if a < b then b else a

let create ~n ~network ~seed ~msg_size ?cpu_cost () =
  if n < 1 then invalid_arg "Engine.create: n < 1";
  if n > slot_mask then invalid_arg "Engine.create: n too large";
  (* The seed root's first split: every recorded run's network draws
     (jitter, loss, duplication) follow from it. *)
  let net_rng = Rng.split (Rng.create seed) in
  {
    n;
    network;
    queue = Event_queue.create ();
    handlers = Array.make n (fun ~src:_ _ -> ());
    net_rng;
    egress_free = Array.make n 0.;
    cpu_free = Array.make n 0.;
    msg_size;
    cpu_cost;
    times = [| 0.; 0. |];
    down = Array.make n false;
    epochs = Array.make n 0;
    cell_pool = [||];
    cell_pool_len = 0;
    batch_pool = [||];
    batch_pool_len = 0;
    filter = (fun ~src:_ ~dst:_ -> true);
    filter_installed = false;
    windows = Link_windows.empty;
    (* A placeholder, never drawn from while no window is installed. *)
    window_rng = net_rng;
    windows_installed = false;
    tap = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    tap_installed = false;
    capture = None;
    capture_installed = false;
    stats = { events_processed = 0; messages_sent = 0; bytes_sent = 0 };
  }

let set_handler t i h = t.handlers.(i) <- h

(* {2 Pools} *)

let fresh_cell ~src ~dst ~epoch ~deliver msg =
  let rec c =
    {
      c_src = src;
      c_dst = dst;
      c_epoch = epoch;
      c_deliver = deliver;
      c_msg = msg;
      c_ev = Msg c;
    }
  in
  c.c_ev

let acquire_cell t ~src ~dst ~epoch ~deliver msg =
  let len = t.cell_pool_len in
  if len > 0 then begin
    let c = Array.unsafe_get t.cell_pool (len - 1) in
    t.cell_pool_len <- len - 1;
    c.c_src <- src;
    c.c_dst <- dst;
    c.c_epoch <- epoch;
    c.c_deliver <- deliver;
    c.c_msg <- msg;
    c.c_ev
  end
  else fresh_cell ~src ~dst ~epoch ~deliver msg

let release_cell t c =
  if not t.capture_installed then begin
    let len = t.cell_pool_len in
    if len = Array.length t.cell_pool then begin
      let pool = Array.make (if len = 0 then 8 else 2 * len) c in
      Array.blit t.cell_pool 0 pool 0 len;
      t.cell_pool <- pool
    end;
    Array.unsafe_set t.cell_pool len c;
    t.cell_pool_len <- len + 1
  end

(* Batches only exist on the captureless fast path, so acquisition never
   consults the capture flag. *)
let acquire_batch t ~src msg =
  let len = t.batch_pool_len in
  let b =
    if len > 0 then begin
      let b = Array.unsafe_get t.batch_pool (len - 1) in
      t.batch_pool_len <- len - 1;
      b.b_src <- src;
      b.b_msg <- msg;
      b
    end
    else
      let rec b =
        { b_src = src; b_msg = msg; b_count = 0; b_slots = [||]; b_ev = Batch b }
      in
      b
  in
  if Array.length b.b_slots < t.n then b.b_slots <- Array.make t.n 0;
  b

let release_batch t b =
  let len = t.batch_pool_len in
  if len = Array.length t.batch_pool then begin
    let pool = Array.make (if len = 0 then 4 else 2 * len) b in
    Array.blit t.batch_pool 0 pool 0 len;
    t.batch_pool <- pool
  end;
  Array.unsafe_set t.batch_pool len b;
  t.batch_pool_len <- len + 1

(* Queue [ev] at [time], handed over in the time slot.  Inlined, so [time]
   is never boxed. *)
let[@inline] push_at t ~time ev =
  Array.unsafe_set t.times time_slot time;
  Event_queue.push_from t.queue t.times time_slot ev

(* All event scheduling funnels through here so an installed capture hook
   sees every message, timer and thunk the simulation would otherwise order
   by time. *)
let[@inline] enqueue t ~time ev =
  match t.capture with
  | None -> push_at t ~time ev
  | Some f -> f ev

(* Message-event scheduling: pooled cells when the engine owns ordering,
   fresh cells under a capture hook (whose owner may hold them
   indefinitely). *)
let[@inline] enqueue_msg t ~time ~src ~dst ~epoch ~deliver msg =
  match t.capture with
  | None -> push_at t ~time (acquire_cell t ~src ~dst ~epoch ~deliver msg)
  | Some f -> f (fresh_cell ~src ~dst ~epoch ~deliver msg)

let set_capture t f =
  t.capture <- Some f;
  t.capture_installed <- true

let inspect = function
  | Msg c -> Pending_message { src = c.c_src; dst = c.c_dst; msg = c.c_msg }
  | Batch _ ->
      (* Batches are never created under a capture hook, and only captured
         events are inspectable. *)
      assert false
  | Timer tm -> Pending_timer { owner = tm.owner }
  | Thunk _ -> Pending_task

let set_link_filter t f =
  t.filter <- f;
  t.filter_installed <- true

let set_link_windows t windows ~rng =
  t.windows <- windows;
  t.window_rng <- rng;
  t.windows_installed <- not (Link_windows.is_empty windows)

let set_delivery_tap t f =
  t.tap <- f;
  t.tap_installed <- true
let now t = clock t
let n t = t.n

let check_node t name i =
  if i < 0 || i >= t.n then invalid_arg ("Engine." ^ name ^ ": node out of range")

let is_down t i =
  check_node t "is_down" i;
  t.down.(i)

(* Crashing loses all volatile state: the handler is detached, in-flight
   events and pending timers die via the epoch bump, and any CPU backlog is
   forgotten.  The node's durable state (a WAL, if the protocol keeps one)
   lives outside the engine. *)
let crash t i =
  check_node t "crash" i;
  if not t.down.(i) then begin
    t.down.(i) <- true;
    t.epochs.(i) <- t.epochs.(i) + 1;
    t.handlers.(i) <- (fun ~src:_ _ -> ());
    t.cpu_free.(i) <- 0.
  end

(* Recovery only clears the down flag; the caller installs a fresh handler
   (a node rebuilt from durable state) and starts it. *)
let recover t i =
  check_node t "recover" i;
  t.down.(i) <- false

let deliver t ~src ~dst ~epoch msg =
  if (not (Array.unsafe_get t.down dst))
     && Array.unsafe_get t.epochs dst = epoch
  then begin
    if t.tap_installed then t.tap ~time:(clock t) ~src ~dst msg;
    t.handlers.(dst) ~src msg
  end

(* Run the message through [dst]'s serial CPU queue before handing it to the
   handler; invoked at the message's network arrival time. *)
let process t ~src ~dst ~epoch msg =
  if (not (Array.unsafe_get t.down dst))
     && Array.unsafe_get t.epochs dst = epoch
  then
    match t.cpu_cost with
    | None -> deliver t ~src ~dst ~epoch msg
    | Some cost ->
        let now = clock t in
        let start = fmax now (Array.unsafe_get t.cpu_free dst) in
        let finish = start +. cost msg in
        Array.unsafe_set t.cpu_free dst finish;
        if finish <= now then deliver t ~src ~dst ~epoch msg
        else enqueue_msg t ~time:finish ~src ~dst ~epoch ~deliver:true msg

(* One network send with the byte size already computed and accounted. *)
let send_sized t ~src ~dst ~size msg =
  if Array.unsafe_get t.down src then ()
  else if dst = src then
    (* Local hand-off: no serialization, no propagation, no CPU charge. *)
    enqueue_msg t ~time:(clock t) ~src ~dst
      ~epoch:(Array.unsafe_get t.epochs dst)
      ~deliver:true msg
  else if
    ((not t.filter_installed) || t.filter ~src ~dst)
    && ((not t.windows_installed)
       || (not (Link_windows.cut t.windows ~src ~dst t.times clock_slot))
          && Link_windows.keep t.windows t.window_rng t.times clock_slot)
  then begin
    let drop = t.network.Network.drop_prob in
    if drop > 0. && Rng.float t.net_rng 1. < drop then ()
    else begin
      let times = t.times in
      Array.unsafe_set times time_slot (clock t);
      Network.delivery_into t.network t.net_rng ~egress:t.egress_free ~src ~dst
        ~size times time_slot;
      if t.windows_installed then
        Link_windows.add_delay t.windows times ~now:clock_slot time_slot;
      let arrival = Array.unsafe_get times time_slot in
      let epoch = Array.unsafe_get t.epochs dst in
      enqueue_msg t ~time:arrival ~src ~dst ~epoch ~deliver:false msg;
      let dup = t.network.Network.duplicate_prob in
      if dup > 0. && Rng.float t.net_rng 1. < dup then begin
        (* Network-level duplication: the copy trails the original slightly. *)
        let lag = Rng.float t.net_rng (0.5 *. t.network.Network.delta) in
        enqueue_msg t ~time:(arrival +. lag) ~src ~dst ~epoch ~deliver:false msg
      end
    end
  end

let send t ~src ~dst msg =
  if Array.unsafe_get t.down src then ()
  else begin
    let size = t.msg_size msg in
    t.stats.messages_sent <- t.stats.messages_sent + 1;
    t.stats.bytes_sent <- t.stats.bytes_sent + size;
    send_sized t ~src ~dst ~size msg
  end

(* Per-destination fan-out, one event each — the general multicast path. *)
let fanout_sends t ~src ~size msg =
  if not t.capture_installed then Event_queue.reserve t.queue (t.n - 1);
  for dst = 0 to t.n - 1 do
    if dst <> src then send_sized t ~src ~dst ~size msg
  done

let multicast t ~src msg =
  if Array.unsafe_get t.down src then ()
  else begin
    (* The wire size is per-message, not per-destination: compute it and the
       traffic accounting once for the whole fan-out.  The local self
       hand-off is not a network send (no serialization, no propagation),
       so it is excluded from the traffic stats: n - 1 copies hit the
       wire. *)
    let size = t.msg_size msg in
    let fanout = t.n - 1 in
    t.stats.messages_sent <- t.stats.messages_sent + fanout;
    t.stats.bytes_sent <- t.stats.bytes_sent + (size * fanout);
    send_sized t ~src ~dst:src ~size msg;
    if fanout > 0 then begin
      let net = t.network in
      (* When every copy of the fan-out arrives at the same instant —
         constant latency, no bandwidth serialization, and no per-link
         instrumentation that could split arrivals — the n - 1 events
         collapse into one Batch heap entry.  Executing the batch delivers
         in ascending destination order, which is exactly the order the
         individual events would have popped in (equal time, consecutive
         seqs), so the schedule is bit-identical to the general path. *)
      match net.Network.latency with
      | Latency.Uniform { base; jitter }
        when jitter <= 0.
             && (not t.capture_installed)
             && (not t.filter_installed)
             && (not t.windows_installed)
             && net.Network.bandwidth_bps = None
             && net.Network.drop_prob = 0.
             && net.Network.duplicate_prob = 0. ->
          let start = fmax (clock t) (Array.unsafe_get t.egress_free src) in
          if start >= net.Network.gst || net.Network.pre_gst_extra = 0. then begin
            (* Zero serialization time: the egress link frees at [start],
               matching n - 1 [delivery_into] calls. *)
            Array.unsafe_set t.egress_free src start;
            let arrival = start +. base in
            let b = acquire_batch t ~src msg in
            let slots = b.b_slots in
            let k = ref 0 in
            for dst = 0 to t.n - 1 do
              if dst <> src then begin
                Array.unsafe_set slots !k
                  ((Array.unsafe_get t.epochs dst lsl slot_bits) lor dst);
                incr k
              end
            done;
            b.b_count <- fanout;
            push_at t ~time:arrival b.b_ev
          end
          else
            (* Pre-GST extra delay draws per-destination randomness. *)
            fanout_sends t ~src ~size msg
      | _ -> fanout_sends t ~src ~size msg
    end
  end

let set_timer ?(owner = -1) t delay f =
  if delay < 0. then invalid_arg "Engine.set_timer: negative delay";
  let epoch = if owner >= 0 then t.epochs.(owner) else 0 in
  let tm = { cancelled = false; owner; epoch; action = f } in
  enqueue t ~time:(clock t +. delay) (Timer tm);
  fun () -> tm.cancelled <- true

let schedule_at t time f =
  if time < clock t then invalid_arg "Engine.schedule_at: time in the past";
  enqueue t ~time (Thunk f)

let timer_live t tm =
  (not tm.cancelled)
  && (tm.owner < 0
     || ((not t.down.(tm.owner)) && t.epochs.(tm.owner) = tm.epoch))

let exec t = function
  | Msg c ->
      (* Read the cell into locals, then release it before running protocol
         code: a handler's own sends may immediately reclaim it. *)
      let src = c.c_src
      and dst = c.c_dst
      and epoch = c.c_epoch
      and is_deliver = c.c_deliver in
      let msg = c.c_msg in
      release_cell t c;
      if is_deliver then deliver t ~src ~dst ~epoch msg
      else process t ~src ~dst ~epoch msg
  | Batch b ->
      let src = b.b_src and count = b.b_count in
      let msg = b.b_msg in
      let slots = b.b_slots in
      for k = 0 to count - 1 do
        let slot = Array.unsafe_get slots k in
        process t ~src ~dst:(slot land slot_mask) ~epoch:(slot lsr slot_bits)
          msg
      done;
      (* Only released after the loop: a handler's nested multicast may
         acquire a batch, and it must not be this one mid-iteration. *)
      release_batch t b
  | Timer tm -> if timer_live t tm then tm.action ()
  | Thunk f -> f ()

let pending_live t = function
  | Msg c -> (not t.down.(c.c_dst)) && t.epochs.(c.c_dst) = c.c_epoch
  | Batch _ -> assert false (* never captured; see [inspect] *)
  | Timer tm -> timer_live t tm
  | Thunk _ -> true

let dispatch t ev =
  t.stats.events_processed <- t.stats.events_processed + 1;
  exec t ev

let advance_clock t time =
  if time < clock t then invalid_arg "Engine.advance_clock: time in the past";
  set_clock t time

let run t ~until =
  let rec loop () =
    if Event_queue.is_empty t.queue then
      (* The run nominally reaches [until] even when no event is left:
         leaving the clock at the last event's time would make a
         subsequent [now] or [set_timer] act in the past. *)
      set_clock t (fmax (clock t) until)
    else begin
      Event_queue.min_time_into t.queue t.times time_slot;
      let time = Array.unsafe_get t.times time_slot in
      if time > until then set_clock t until
      else begin
        let ev = Event_queue.take t.queue in
        set_clock t time;
        (* A batch is [b_count] logical message events; read before [exec]
           recycles it. *)
        t.stats.events_processed <-
          (t.stats.events_processed
          + match ev with Batch b -> b.b_count | Msg _ | Timer _ | Thunk _ -> 1);
        exec t ev;
        loop ()
      end
    end
  in
  loop ()

let stats t = t.stats
