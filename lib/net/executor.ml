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

(* A cancelled timer stays on the heap and is skipped when popped, as in
   {!Bft_sim.Engine}. *)
type timer = { mutable cancelled : bool; action : unit -> unit }

(* Slots of the body memo; a power of two, indexed by the body's hash. *)
let memo_slots = 64

module Make (P : Protocol_intf.S) = struct
  module H = Node_host.Make (P)

  type t = {
    id : int;
    incarnation : int;
    trace : Trace.t option;
    now : unit -> float;
    sink : sink;
    persist : (string -> unit) option;
    wal : P.wal;
    mutable last : string;  (* the last snapshot handed to [persist] *)
    host : H.t Lazy.t;  (* lazy: its transport reads the node's view *)
    selfq : P.msg Queue.t;
    timers : timer Bft_sim.Event_queue.t;
    slot : float array;  (* the earliest timer's deadline, unboxed *)
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

  let set_timer t delay action =
    let tm = { cancelled = false; action } in
    Bft_sim.Event_queue.push t.timers ~time:(t.now () +. delay) tm;
    fun () -> tm.cancelled <- true

  let send t dst msg =
    if dst = t.id then Queue.push msg t.selfq
    else
      t.sink.send ~dst ~src_view:(H.view (host t))
        ~payload:(P.payload_bytes msg) (P.encode_msg msg)

  let multicast t n msg =
    let body = P.encode_msg msg in
    let src_view = H.view (host t) and payload = P.payload_bytes msg in
    for dst = 0 to n - 1 do
      if dst = t.id then Queue.push msg t.selfq
      else t.sink.send ~dst ~src_view ~payload body
    done

  let create (policy : Node_host.policy) ~id ~incarnation ~wal ~target_blocks
      ~now sink ~persist ~on_target ~on_recover =
    let rec t =
      {
        id;
        incarnation;
        trace = policy.trace;
        now;
        sink;
        persist;
        wal = H.wal_of_snapshot ~id wal;
        last = Option.value wal ~default:"";
        host = lazy (make_host ());
        selfq = Queue.create ();
        timers = Bft_sim.Event_queue.create ();
        slot = [| 0. |];
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
          set_timer = set_timer t }
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
    if not (t.crashing || Queue.is_empty t.selfq) then begin
      let msg = Queue.take t.selfq in
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
     in the memo stands for a decode. *)
  let decode t body =
    let i = Hashtbl.hash body land (memo_slots - 1) in
    if String.equal t.bodies.(i) body then t.decoded.(i)
    else begin
      let r = P.decode_msg body in
      t.bodies.(i) <- body;
      t.decoded.(i) <- r;
      r
    end

  (* What depends on the frame stays per frame: its trailer, its sender's
     malformed count and its byte count.  A frame whose trailer is not its
     message's payload is malformed: the trailer stands for exactly those
     bytes. *)
  let receive t ~src ~payload body =
    if not t.crashing then begin
      t.frames <- t.frames + 1;
      match decode t body with
      | Ok msg when P.payload_bytes msg = payload ->
          deliver t ~src
            ~bytes:(Wire.frame_size ~payload (String.length body))
            msg;
          drain_self t
      | Ok msg ->
          malformed t ~src
            (Printf.sprintf "%d-byte trailer for a %d-byte payload" payload
               (P.payload_bytes msg))
      | Error reason -> malformed t ~src reason
    end

  (* Pops in deadline order, FIFO on ties; a timer set by a callback joins
     the batch when it is already due. *)
  let rec fire_due t ~now =
    let q = t.timers in
    if (not t.crashing) && not (Bft_sim.Event_queue.is_empty q) then begin
      Bft_sim.Event_queue.min_time_into q t.slot 0;
      if t.slot.(0) <= now then begin
        let tm = Bft_sim.Event_queue.take q in
        if not tm.cancelled then begin
          t.ran <- true;
          tm.action ()
        end;
        fire_due t ~now
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
    fire_due t ~now:(t.now ());
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
      Bft_sim.Event_queue.min_time_into t.timers t.slot 0;
      Float.max 0. ((t.slot.(0) -. t.now ()) /. 1000.)
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
