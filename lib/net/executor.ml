open Bft_types
module Trace = Bft_obs.Trace

let log_src = Logs.Src.create "moonshot.executor" ~doc:"Socket node executor"

type commit = { c_block : Block.t; c_height : int; c_time_ms : float }
type proposal = { p_block : Block.t; p_height : int; p_time_ms : float }

type node_result = {
  id : int;
  commits : commit list;
  proposals : proposal list;
  trace_events : Trace.event list;
  decode_errors : int;
  frames_received : int;
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
  reconnects : int;
  restarts : int;
  malformed_by_peer : int array;
  dropped_by_peer : int array;
}

type sink = {
  send : dst:int -> src_view:int -> payload:int -> string -> unit;
  release : unit -> unit;
}

module Timer_row = Bft_sim.Timer_row

(* The timer heap's size below which dead entries wait to be popped: the
   heap's initial capacity. *)
let compact_floor = 64

(* [clock] slots: the earliest deadline, the time a [step] fires against,
   a new arming's deadline. *)
let deadline_slot = 0
let step_slot = 1
let arm_slot = 2

(* Slots of the body memo; a power of two, indexed by the body's hash. *)
let memo_slots = 64

(* The memo slot of [buf]'s [len] bytes from [off]: FNV-1a, its high bits
   folded into the low ones. *)
let memo_slot_of buf off len =
  let h = ref 0x811c9dc5 in
  for k = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf k)) * 0x01000193
  done;
  let h = !h in
  (h lxor (h lsr 29) lxor (h lsr 13)) land (memo_slots - 1)

let memo_slot body =
  memo_slot_of (Bytes.unsafe_of_string body) 0 (String.length body)

(* Whether [s] is [buf]'s [len] bytes from [off]. *)
let equal_slice s buf off len =
  String.length s = len
  &&
  let k = ref 0 in
  while !k < len && String.unsafe_get s !k = Bytes.unsafe_get buf (off + !k) do
    incr k
  done;
  !k = len

module Make (P : Protocol_intf.S) = struct
  module H = Node_host.Make (P)

  type t = {
    id : int;
    incarnation : int;
    trace : Trace.t option;
    now_into : float array -> int -> unit;
    now : unit -> float;
    sink : sink;
    persist : (string -> unit) option;
    wal : P.wal;
    mutable last : string;  (* the last snapshot handed to [persist] *)
    host : H.t Lazy.t;  (* lazy: its transport reads the node's view *)
    (* Messages to itself, a ring of [self_len] from [self_head] whose
       capacity is zero or a power of two and doubles when full, like the
       engine's lanes: a self-delivery takes a slot, not a cell. *)
    mutable self_msgs : P.msg array;  (* [||] until the first *)
    mutable self_head : int;
    mutable self_len : int;
    (* The heap holds the timer records themselves, so their handles are
       unused. *)
    timers : unit Timer_row.t Bft_sim.Event_queue.t;
    timer_row : unit Timer_row.rows;  (* one row: this node's *)
    mutable compact_at : int;  (* the heap size that drops dead entries *)
    clock : float array;  (* times in slots, unboxed *)
    malformed : int array;
    (* The body memo, direct-mapped: [decoded.(i)] is what [bodies.(i)]
       decodes to.  A multicast vote reaches a node as n - 1 identical
       bodies, decoded once. *)
    bodies : string array;
    decoded : (P.msg, string) result array;
    mutable frames : int;
    mutable commits : commit list;
    mutable proposals : proposal list;
    mutable target_met : bool;
    (* Set by every handler or timer run; the end of an iteration persists
       only when something ran. *)
    mutable ran : bool;
    mutable stopped : bool;
    mutable crashing : bool;
  }

  let host t = Lazy.force t.host
  let running t = not (t.stopped || t.crashing)
  let crashed t = t.crashing
  let stop t = t.stopped <- true

  let crash t =
    if not t.crashing then begin
      t.crashing <- true;
      H.emit (host t) Trace.(Fault Crash)
    end

  (* Cancelled and replaced armings stay on the heap until their deadline,
     a view timeout after they were armed, which a run of short views
     reaches only after hundreds of armings; once they fill the heap they
     are dropped instead of growing it. *)
  let set_timer t delay action =
    let q = t.timers in
    if Bft_sim.Event_queue.size q >= t.compact_at then begin
      Bft_sim.Event_queue.retain q Timer_row.live;
      t.compact_at <- max compact_floor (2 * Bft_sim.Event_queue.size q)
    end;
    let tm = Timer_row.claim t.timer_row 0 action () in
    t.now_into t.clock arm_slot;
    t.clock.(arm_slot) <- t.clock.(arm_slot) +. delay;
    Timer_row.arm tm q t.clock arm_slot tm;
    Timer_row.cancel tm

  (* Doubling unrolls the ring: its entries move to [0, self_len). *)
  let push_self t msg =
    let old = Array.length t.self_msgs and len = t.self_len in
    if len = old then begin
      let msgs = Array.make (if old = 0 then 8 else 2 * old) msg in
      for k = 0 to len - 1 do
        msgs.(k) <- t.self_msgs.((t.self_head + k) land (old - 1))
      done;
      t.self_msgs <- msgs;
      t.self_head <- 0
    end;
    let mask = Array.length t.self_msgs - 1 in
    t.self_msgs.((t.self_head + len) land mask) <- msg;
    t.self_len <- len + 1

  let take_self t =
    let h = t.self_head in
    let msg = t.self_msgs.(h) in
    t.self_head <- (h + 1) land (Array.length t.self_msgs - 1);
    t.self_len <- t.self_len - 1;
    msg

  let send t dst msg =
    if dst = t.id then push_self t msg
    else
      t.sink.send ~dst ~src_view:(H.view (host t))
        ~payload:(P.payload_bytes msg) (P.encode_msg msg)

  let multicast t n msg =
    let body = P.encode_msg msg in
    let src_view = H.view (host t) and payload = P.payload_bytes msg in
    for dst = 0 to n - 1 do
      if dst = t.id then push_self t msg
      else t.sink.send ~dst ~src_view ~payload body
    done

  let create (policy : Node_host.policy) ~id ~incarnation ~wal ~target_blocks
      ~now_into sink ~persist ~on_target ~on_recover =
    let reading = [| 0. |] in
    let now () =
      now_into reading 0;
      reading.(0)
    in
    let rec t =
      {
        id;
        incarnation;
        trace = policy.trace;
        now_into;
        now;
        sink;
        persist;
        wal = H.wal_of_snapshot ~id wal;
        last = Option.value wal ~default:"";
        host = lazy (make_host ());
        self_msgs = [||];
        self_head = 0;
        self_len = 0;
        timers = Bft_sim.Event_queue.create ();
        timer_row = Timer_row.rows 1;
        compact_at = compact_floor;
        clock = Array.make 3 0.;
        malformed = Array.make policy.n 0;
        (* Every slot holds a true pair from the start: the empty body's. *)
        bodies = Array.make memo_slots "";
        decoded = Array.make memo_slots (P.decode_msg "");
        frames = 0;
        commits = [];
        proposals = [];
        target_met = false;
        ran = false;
        stopped = false;
        crashing = false;
      }
    and make_host () =
      H.create policy ~incarnation ~wal:t.wal ~id
        { now; send = send t; multicast = multicast t policy.n;
          set_timer = (fun delay f -> set_timer t delay f) }
        ~on_spawn:(fun _ _ -> ())
        ~on_commit:(fun b ->
          t.commits <-
            { c_block = b; c_height = b.Block.height; c_time_ms = now () }
            :: t.commits;
          (* Height-based, not count-based: a recovered incarnation starts
             from an empty commit log and reaches the target by syncing,
             whether or not every historic height is replayed through
             [on_commit]. *)
          if b.Block.height >= target_blocks && not t.target_met then begin
            t.target_met <- true;
            on_target ()
          end)
        ~on_propose:(fun b ->
          t.proposals <-
            { p_block = b; p_height = b.Block.height; p_time_ms = now () }
            :: t.proposals)
        ~on_verdict:(fun v ->
          if v.Node_host.crash then crash t;
          List.iter on_recover v.Node_host.recover)
    in
    t

  let deliver t ~src ~bytes msg =
    t.ran <- true;
    H.delivered (host t) ~src ~bytes msg;
    H.handle (host t) ~src msg

  let rec drain_self t =
    if not (t.crashing || t.self_len = 0) then begin
      let msg = take_self t in
      let bytes =
        if Option.is_some t.trace then
          Wire.frame_size ~payload:(P.payload_bytes msg)
            (String.length (P.encode_msg msg))
        else 0
      in
      deliver t ~src:t.id ~bytes msg;
      drain_self t
    end

  let malformed t ~src reason =
    t.malformed.(src) <- t.malformed.(src) + 1;
    Logs.debug ~src:log_src (fun m ->
        m "node %d: dropped frame from %d: %s" t.id src reason)

  (* A body decodes the same whatever its sender (docs/WIRE.md), so a hit
     in the memo stands for a decode, and only a miss copies the body out
     of [buf]. *)
  let decode t buf off len =
    let i = memo_slot_of buf off len in
    if equal_slice t.bodies.(i) buf off len then t.decoded.(i)
    else begin
      let body = Bytes.sub_string buf off len in
      let r = P.decode_msg body in
      t.bodies.(i) <- body;
      t.decoded.(i) <- r;
      r
    end

  (* What depends on the frame stays per frame: its trailer, its sender's
     malformed count and its byte count.  A frame whose trailer is not its
     message's payload is malformed: the trailer stands for exactly those
     bytes. *)
  let receive t ~src ~payload buf off len =
    if not t.crashing then begin
      t.frames <- t.frames + 1;
      match decode t buf off len with
      | Ok msg when P.payload_bytes msg = payload ->
          deliver t ~src ~bytes:(Wire.frame_size ~payload len) msg;
          drain_self t
      | Ok msg ->
          malformed t ~src
            (Printf.sprintf "%d-byte trailer for a %d-byte payload" payload
               (P.payload_bytes msg))
      | Error reason -> malformed t ~src reason
    end

  (* Pops in deadline order, FIFO on ties, against the time in
     [clock.(step_slot)]; a timer set by a callback joins the batch when it
     is already due. *)
  let rec fire_due t =
    let q = t.timers in
    if (not t.crashing) && not (Bft_sim.Event_queue.is_empty q) then begin
      Bft_sim.Event_queue.min_time_into q t.clock deadline_slot;
      if t.clock.(deadline_slot) <= t.clock.(step_slot) then begin
        let seq = Bft_sim.Event_queue.top_seq q in
        let tm = Bft_sim.Event_queue.take q in
        if Timer_row.live tm seq then begin
          t.ran <- true;
          Timer_row.fire tm
        end;
        fire_due t
      end
    end

  (* The output commit.  The snapshot is cached until the next record: an
     unchanged log returns the same string, and [String.equal] tests
     physical equality first. *)
  let end_iteration t =
    (match t.persist with
    | Some write when t.ran ->
        let s = P.wal_encode t.wal in
        if not (String.equal s t.last) then begin
          t.last <- s;
          write s
        end
    | _ -> ());
    t.ran <- false;
    t.sink.release ()

  let step t =
    t.now_into t.clock step_slot;
    fire_due t;
    drain_self t;
    end_iteration t

  let start t =
    let h = host t in
    H.spawn h;
    H.start h;
    H.fault_step h;
    t.ran <- true;
    drain_self t;
    end_iteration t

  let wait_s t =
    if Bft_sim.Event_queue.is_empty t.timers then -1.
    else begin
      Bft_sim.Event_queue.min_time_into t.timers t.clock deadline_slot;
      t.now_into t.clock step_slot;
      Float.max 0.
        ((t.clock.(deadline_slot) -. t.clock.(step_slot)) /. 1000.)
    end

  let finish t (st : Conn_manager.stats) =
    Array.iteri
      (fun peer m ->
        let d = st.dropped.(peer) in
        if peer <> t.id && (m > 0 || d > 0) then
          H.emit (host t)
            (Trace.Link_report { peer; malformed = m; dropped = d }))
      t.malformed;
    let trace_events =
      match t.trace with None -> [] | Some sink -> Trace.events sink
    in
    ( {
        id = t.id;
        commits = List.rev t.commits;
        proposals = List.rev t.proposals;
        trace_events;
        decode_errors = Array.fold_left ( + ) 0 t.malformed;
        frames_received = t.frames;
        messages_sent = st.messages_sent;
        bytes_sent = st.bytes_sent;
        bytes_heal = st.bytes_heal;
        reconnects = st.reconnects;
        restarts = t.incarnation;
        malformed_by_peer = Array.copy t.malformed;
        dropped_by_peer = st.dropped;
      },
      if t.crashing then Some (P.wal_encode t.wal) else None )
end
