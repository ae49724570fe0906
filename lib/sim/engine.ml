type stats = {
  mutable events_processed : int;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable peak_pending : int;
}

(* The event heap ({!Event_queue}) orders every event by (time, seq), the
   sequence number breaking ties FIFO.  Three kinds of heap entry carry
   message traffic, the O(n^2)-per-view hot path, and none of them
   allocates once the run is warm:

   - A [Run] is one multicast fan-out.  Its copies' arrivals are drawn in
     destination order, exactly as n - 1 separate sends would draw them
     (duplicates included), and each takes the seq its own push would
     have taken ([Event_queue.take_seq]).  They are kept sorted by (time,
     seq) in flat arrays, and the run sits in the heap once, keyed by its
     head.  Consuming the head re-keys the entry ([replace_top_from]); a
     stretch of equal times with consecutive seqs (a uniform-latency
     fan-out is all one stretch) is consumed without touching the heap.
   - A [Lane] is one node's CPU queue: messages that have arrived and wait
     for the node's serial CPU.  Finish times never decrease and seqs
     increase, so the lane is a FIFO ring, again one heap entry keyed by
     its head.  The one exception is a crash, which resets the node's CPU:
     a new arrival that would finish before the lane's tail then falls
     back to a cell of its own.
   - A [Msg] cell is one message: a unicast arrival, a self hand-off, a
     lane's fallback, and every message under a capture hook.

   Since keys are unique, the heap pops runs, lanes and cells in exactly
   the order of a heap with one entry per event, and [events_processed]
   counts each message once.  The heap holds O(fan-outs in flight + n)
   entries instead of one per message in flight.  Cells and runs are
   pooled: a drained run and a delivered cell return to per-engine free
   stacks and the next send claims them back.  Each cell and run is
   allocated together with its own event wrapper (tied by [c_ev] /
   [r_ev]), so re-enqueueing costs zero allocations.  Timers and one-off
   scheduled actions are inherently code, so those arms keep a closure.

   Message entries additionally carry the destination's incarnation epoch
   at send time: crashing a node bumps its epoch, so in-flight events
   addressed to the previous incarnation are dropped on execution instead
   of resurrecting state the crash was supposed to lose. *)
type 'msg event =
  | Msg of 'msg cell
  | Run of 'msg run
  | Lane of 'msg lane
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

(* Entries [r_head, r_len) are pending, sorted by (time, seq).  The arrays
   start at n - 1 slots (one fan-out) and double when duplicates overflow
   them.  A flat run's entries all arrive at [r_times.(0)] with seqs
   consecutive from [r_seqs.(0)], so only its slots are filled in. *)
and 'msg run = {
  mutable r_src : int;
  mutable r_msg : 'msg;
  mutable r_flat : bool;
  mutable r_times : float array;
  mutable r_seqs : int array;
  mutable r_slots : int array;  (* [(epoch lsl slot_bits) lor dst] *)
  mutable r_head : int;
  mutable r_len : int;
  r_ev : 'msg event;
}

(* A ring of [l_len] entries from [l_head]; the capacity is zero or a power
   of two and doubles when full.  Non-empty exactly while it is in the
   heap. *)
and 'msg lane = {
  l_dst : int;
  mutable l_times : float array;
  mutable l_seqs : int array;
  mutable l_slots : int array;  (* [(epoch lsl slot_bits) lor src] *)
  mutable l_msgs : 'msg array;  (* [||] until the first message *)
  mutable l_head : int;
  mutable l_len : int;
  l_ev : 'msg event;
}

and timer = {
  mutable cancelled : bool;
  owner : int;  (* -1 = unowned; survives crashes *)
  epoch : int;
  action : unit -> unit;
}

(* Node index width inside a run or lane slot; the epoch occupies the bits
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
  lanes : 'msg lane array;  (* [lanes.(i)] is node [i]'s CPU queue *)
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
  (* Free stacks for message cells and fan-out runs.  The engine is
     single-threaded, so one pool serves all nodes; it grows to the
     steady-state number of in-flight entries and then every send is
     allocation-free.  Pooling is disabled under a capture hook — the
     hook's owner holds events across dispatches. *)
  mutable cell_pool : 'msg cell array;
  mutable cell_pool_len : int;
  mutable run_pool : 'msg run array;
  mutable run_pool_len : int;
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
  let lane dst =
    let rec l =
      {
        l_dst = dst;
        l_times = [||];
        l_seqs = [||];
        l_slots = [||];
        l_msgs = [||];
        l_head = 0;
        l_len = 0;
        l_ev = Lane l;
      }
    in
    l
  in
  {
    n;
    network;
    queue = Event_queue.create ();
    handlers = Array.make n (fun ~src:_ _ -> ());
    net_rng;
    egress_free = Array.make n 0.;
    cpu_free = Array.make n 0.;
    lanes = Array.init n lane;
    msg_size;
    cpu_cost;
    times = [| 0.; 0. |];
    down = Array.make n false;
    epochs = Array.make n 0;
    cell_pool = [||];
    cell_pool_len = 0;
    run_pool = [||];
    run_pool_len = 0;
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
    stats =
      {
        events_processed = 0;
        messages_sent = 0;
        bytes_sent = 0;
        peak_pending = 0;
      };
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

(* Runs only exist on the captureless path, so acquisition never consults
   the capture flag. *)
let acquire_run t ~src msg =
  let len = t.run_pool_len in
  if len > 0 then begin
    let r = Array.unsafe_get t.run_pool (len - 1) in
    t.run_pool_len <- len - 1;
    r.r_src <- src;
    r.r_msg <- msg;
    r.r_flat <- false;
    r.r_head <- 0;
    r.r_len <- 0;
    r
  end
  else
    let cap = max 1 (t.n - 1) in
    let rec r =
      {
        r_src = src;
        r_msg = msg;
        r_flat = false;
        r_times = Array.make cap 0.;
        r_seqs = Array.make cap 0;
        r_slots = Array.make cap 0;
        r_head = 0;
        r_len = 0;
        r_ev = Run r;
      }
    in
    r

let release_run t r =
  let len = t.run_pool_len in
  if len = Array.length t.run_pool then begin
    let pool = Array.make (if len = 0 then 4 else 2 * len) r in
    Array.blit t.run_pool 0 pool 0 len;
    t.run_pool <- pool
  end;
  Array.unsafe_set t.run_pool len r;
  t.run_pool_len <- len + 1

let grow_run r =
  let cap = 2 * Array.length r.r_times and len = r.r_len in
  let times = Array.make cap 0. in
  Array.blit r.r_times 0 times 0 len;
  r.r_times <- times;
  let seqs = Array.make cap 0 in
  Array.blit r.r_seqs 0 seqs 0 len;
  r.r_seqs <- seqs;
  let slots = Array.make cap 0 in
  Array.blit r.r_slots 0 slots 0 len;
  r.r_slots <- slots

(* Doubling unrolls the ring: its entries move to [0, l_len). *)
let grow_lane l msg =
  let old = Array.length l.l_times and len = l.l_len in
  let cap = if old = 0 then 8 else 2 * old in
  let times = Array.make cap 0.
  and seqs = Array.make cap 0
  and slots = Array.make cap 0
  and msgs = Array.make cap msg in
  for k = 0 to len - 1 do
    let i = (l.l_head + k) land (old - 1) in
    times.(k) <- l.l_times.(i);
    seqs.(k) <- l.l_seqs.(i);
    slots.(k) <- l.l_slots.(i);
    msgs.(k) <- l.l_msgs.(i)
  done;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_slots <- slots;
  l.l_msgs <- msgs;
  l.l_head <- 0

(* {2 Scheduling} *)

let[@inline] note_size t =
  let size = Event_queue.size t.queue in
  if size > t.stats.peak_pending then t.stats.peak_pending <- size

(* Queue [ev] at [times.(time_slot)]. *)
let push_slot t ev =
  Event_queue.push_from t.queue t.times time_slot ev;
  note_size t

(* Queue [ev] at [time], handed over in the time slot.  Inlined, so [time]
   is never boxed. *)
let[@inline] push_at t ~time ev =
  Array.unsafe_set t.times time_slot time;
  push_slot t ev

(* All event scheduling funnels through here so an installed capture hook
   sees every message, timer and thunk the simulation would otherwise order
   by time. *)
let[@inline] enqueue t ~time ev =
  match t.capture with
  | None -> push_at t ~time ev
  | Some f -> f ev

(* One message event at [times.(time_slot)]: a pooled cell when the engine
   owns ordering, a fresh one under a capture hook (whose owner may hold
   it indefinitely). *)
let enqueue_msg t ~src ~dst ~epoch ~deliver msg =
  match t.capture with
  | None -> push_slot t (acquire_cell t ~src ~dst ~epoch ~deliver msg)
  | Some f -> f (fresh_cell ~src ~dst ~epoch ~deliver msg)

(* Append the arrival at [times.(time_slot)] for [dst] to the run being
   built, keeping it sorted by (time, seq).  The new seq is the largest
   so far, so the copy goes after every entry of equal or earlier time:
   an insertion from the tail, which moves nothing for an in-order copy.
   At n = 100 over the region matrix (whose round-robin regions put the
   copies far out of order) this measured as fast as a bottom-up merge
   sort of the finished run. *)
let run_add t r ~dst =
  let len = r.r_len in
  if len = Array.length r.r_times then grow_run r;
  let times = r.r_times and seqs = r.r_seqs and slots = r.r_slots in
  let time = Array.unsafe_get t.times time_slot in
  let i = ref len in
  while !i > 0 && time < Array.unsafe_get times (!i - 1) do
    let j = !i - 1 in
    Array.unsafe_set times !i (Array.unsafe_get times j);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs j);
    Array.unsafe_set slots !i (Array.unsafe_get slots j);
    i := j
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i (Event_queue.take_seq t.queue);
  Array.unsafe_set slots !i
    ((Array.unsafe_get t.epochs dst lsl slot_bits) lor dst);
  r.r_len <- len + 1

(* Queue a message that finishes on [dst]'s CPU at [times.(time_slot)]. *)
let lane_add t ~src ~dst ~epoch msg =
  let l = Array.unsafe_get t.lanes dst in
  let len = l.l_len in
  let finish = Array.unsafe_get t.times time_slot in
  if
    len > 0
    && finish
       < Array.unsafe_get l.l_times
           ((l.l_head + len - 1) land (Array.length l.l_times - 1))
  then
    (* Only after a crash reset [dst]'s CPU: the dead incarnation's
       backlog still waits in the lane. *)
    push_slot t (acquire_cell t ~src ~dst ~epoch ~deliver:true msg)
  else begin
    if len = Array.length l.l_times then grow_lane l msg;
    let i = (l.l_head + len) land (Array.length l.l_times - 1) in
    let seq = Event_queue.take_seq t.queue in
    Array.unsafe_set l.l_times i finish;
    Array.unsafe_set l.l_seqs i seq;
    Array.unsafe_set l.l_slots i ((epoch lsl slot_bits) lor src);
    Array.unsafe_set l.l_msgs i msg;
    l.l_len <- len + 1;
    if len = 0 then begin
      Event_queue.push_seq_from t.queue t.times time_slot ~seq l.l_ev;
      note_size t
    end
  end

let set_capture t f =
  t.capture <- Some f;
  t.capture_installed <- true

let inspect = function
  | Msg c -> Pending_message { src = c.c_src; dst = c.c_dst; msg = c.c_msg }
  | Run _ | Lane _ ->
      (* Runs and lanes are never created under a capture hook, and only
         captured events are inspectable. *)
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
        else begin
          Array.unsafe_set t.times time_slot finish;
          if t.capture_installed then
            enqueue_msg t ~src ~dst ~epoch ~deliver:true msg
          else lane_add t ~src ~dst ~epoch msg
        end

(* The network leg of one copy to another node: the link filter, the
   windows (cut, then the loss draw) and the network model, in that
   order.  False when the copy is lost; otherwise its arrival time
   is in [times.(time_slot)]. *)
let[@inline] transmit t ~src ~dst ~size =
  ((not t.filter_installed) || t.filter ~src ~dst)
  && ((not t.windows_installed)
     || (not (Link_windows.cut t.windows ~src ~dst t.times clock_slot))
        && Link_windows.keep t.windows t.window_rng t.times clock_slot)
  &&
  let times = t.times in
  Array.unsafe_set times time_slot (clock t);
  Network.delivery_into t.network t.net_rng ~egress:t.egress_free ~src ~dst
    ~size times time_slot;
  if t.windows_installed then
    Link_windows.add_delay t.windows times ~now:clock_slot time_slot;
  true

(* Whether the network duplicates the copy just transmitted.  If it does,
   [times.(time_slot)] moves to the duplicate's arrival, which trails the
   original slightly. *)
let[@inline] duplicated t =
  let dup = t.network.Network.duplicate_prob in
  dup > 0.
  && Rng.float t.net_rng 1. < dup
  &&
  let lag = Rng.float t.net_rng (0.5 *. t.network.Network.delta) in
  Array.unsafe_set t.times time_slot
    (Array.unsafe_get t.times time_slot +. lag);
  true

(* One send with the byte size already computed and accounted. *)
let send_sized t ~src ~dst ~size msg =
  if Array.unsafe_get t.down src then ()
  else if dst = src then begin
    (* Local hand-off: no serialization, no propagation, no CPU charge. *)
    Array.unsafe_set t.times time_slot (clock t);
    enqueue_msg t ~src ~dst
      ~epoch:(Array.unsafe_get t.epochs dst)
      ~deliver:true msg
  end
  else if transmit t ~src ~dst ~size then begin
    let epoch = Array.unsafe_get t.epochs dst in
    enqueue_msg t ~src ~dst ~epoch ~deliver:false msg;
    if duplicated t then enqueue_msg t ~src ~dst ~epoch ~deliver:false msg
  end

let send t ~src ~dst msg =
  if Array.unsafe_get t.down src then ()
  else begin
    let size = t.msg_size msg in
    t.stats.messages_sent <- t.stats.messages_sent + 1;
    t.stats.bytes_sent <- t.stats.bytes_sent + size;
    send_sized t ~src ~dst ~size msg
  end

(* The fan-out as one run: the same copies, draws and seqs as n - 1
   [send_sized] calls, in one heap entry. *)
let fanout_run t ~src ~size msg =
  let r = acquire_run t ~src msg in
  let net = t.network in
  (match net.Network.latency with
  | Latency.Uniform { base; jitter }
    when jitter <= 0.
         && (not t.filter_installed)
         && (not t.windows_installed)
         && net.Network.bandwidth_bps = None
         && net.Network.duplicate_prob = 0.
         && (fmax (clock t) (Array.unsafe_get t.egress_free src)
             >= net.Network.gst
            || net.Network.pre_gst_extra = 0.) ->
      (* Every copy arrives at the same instant and draws nothing, so the
         network model is evaluated once: the egress link frees at the
         send's start (zero serialization time), as n - 1
         [delivery_into] calls would leave it.  The copies take
         consecutive seqs in destination order, so the run is flat. *)
      let start = fmax (clock t) (Array.unsafe_get t.egress_free src) in
      Array.unsafe_set t.egress_free src start;
      Array.unsafe_set r.r_times 0 (start +. base);
      Array.unsafe_set r.r_seqs 0
        (Event_queue.take_seqs t.queue (t.n - 1));
      let slots = r.r_slots and epochs = t.epochs in
      let k = ref 0 in
      for dst = 0 to t.n - 1 do
        if dst <> src then begin
          Array.unsafe_set slots !k
            ((Array.unsafe_get epochs dst lsl slot_bits) lor dst);
          incr k
        end
      done;
      r.r_len <- !k;
      r.r_flat <- true
  | _ ->
      for dst = 0 to t.n - 1 do
        if dst <> src && transmit t ~src ~dst ~size then begin
          run_add t r ~dst;
          if duplicated t then run_add t r ~dst
        end
      done);
  if r.r_len = 0 then release_run t r
  else begin
    Event_queue.push_seq_from t.queue r.r_times 0
      ~seq:(Array.unsafe_get r.r_seqs 0) r.r_ev;
    note_size t
  end

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
    if fanout > 0 then
      if t.capture_installed then
        (* The hook's owner orders each copy on its own. *)
        for dst = 0 to t.n - 1 do
          if dst <> src then send_sized t ~src ~dst ~size msg
        done
      else fanout_run t ~src ~size msg
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
  | Timer tm -> if timer_live t tm then tm.action ()
  | Thunk f -> f ()
  | Run _ | Lane _ -> assert false (* consumed in place by [run] *)

let pending_live t = function
  | Msg c -> (not t.down.(c.c_dst)) && t.epochs.(c.c_dst) = c.c_epoch
  | Run _ | Lane _ -> assert false (* never captured; see [inspect] *)
  | Timer tm -> timer_live t tm
  | Thunk _ -> true

let dispatch t ev =
  t.stats.events_processed <- t.stats.events_processed + 1;
  exec t ev

let advance_clock t time =
  if time < clock t then invalid_arg "Engine.advance_clock: time in the past";
  set_clock t time

(* The run at the top of the heap: its head and every following entry at
   the same time with consecutive seqs are next, since no other key can
   fall between them.  The entry is re-keyed (or removed) before any
   handler runs, so the heap is exact whenever protocol code pushes; a
   drained run returns to the pool only afterwards, because its arrays
   are still being read. *)
let step_run t r =
  let times = r.r_times and seqs = r.r_seqs and slots = r.r_slots in
  let len = r.r_len and k = r.r_head in
  let j = ref (if r.r_flat then len else k + 1) in
  while
    !j < len
    && Array.unsafe_get times !j = Array.unsafe_get times k
    && Array.unsafe_get seqs !j = Array.unsafe_get seqs (!j - 1) + 1
  do
    incr j
  done;
  let j = !j in
  if j = len then ignore (Event_queue.take t.queue : _ event)
  else begin
    r.r_head <- j;
    Event_queue.replace_top_from t.queue times j ~seq:(Array.unsafe_get seqs j)
  end;
  let src = r.r_src and msg = r.r_msg in
  for i = k to j - 1 do
    let slot = Array.unsafe_get slots i in
    t.stats.events_processed <- t.stats.events_processed + 1;
    process t ~src ~dst:(slot land slot_mask) ~epoch:(slot lsr slot_bits) msg
  done;
  if j = len then release_run t r

(* The lane at the top of the heap: deliver its head. *)
let step_lane t l =
  let h = l.l_head and mask = Array.length l.l_times - 1 in
  let slot = Array.unsafe_get l.l_slots h
  and msg = Array.unsafe_get l.l_msgs h in
  let next = (h + 1) land mask and len = l.l_len - 1 in
  l.l_head <- next;
  l.l_len <- len;
  if len = 0 then ignore (Event_queue.take t.queue : _ event)
  else
    Event_queue.replace_top_from t.queue l.l_times next
      ~seq:(Array.unsafe_get l.l_seqs next);
  t.stats.events_processed <- t.stats.events_processed + 1;
  deliver t ~src:(slot land slot_mask) ~dst:l.l_dst ~epoch:(slot lsr slot_bits)
    msg

(* A loop, not a local recursive function: the closure would be
   allocated on every call. *)
let run t ~until =
  let q = t.queue in
  let running = ref true in
  while !running do
    if Event_queue.is_empty q then begin
      (* The run nominally reaches [until] even when no event is left:
         leaving the clock at the last event's time would make a
         subsequent [now] or [set_timer] act in the past. *)
      set_clock t (fmax (clock t) until);
      running := false
    end
    else begin
      Event_queue.min_time_into q t.times time_slot;
      let time = Array.unsafe_get t.times time_slot in
      if time > until then begin
        set_clock t until;
        running := false
      end
      else begin
        set_clock t time;
        match Event_queue.top q with
        | Run r -> step_run t r
        | Lane l -> step_lane t l
        | (Msg _ | Timer _ | Thunk _) as ev ->
            ignore (Event_queue.take q : _ event);
            dispatch t ev
      end
    end
  done

let stats t = t.stats
