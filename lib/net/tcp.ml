open Bft_types
module W = Wire.W
module R = Wire.R
module FS = Bft_faults.Fault_schedule

let log_src = Logs.Src.create "moonshot.net" ~doc:"TCP transport backend"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Threads | Processes
type outcome = Completed | Timed_out

type config = {
  n : int;
  delta_ms : float;
  payload_bytes : int;
  target_blocks : int;
  timeout_ms : float;
  mode : mode;
  base_port : int option;
  leader_of : int -> int;
  trace : bool;
  protocol_name : string;
  faults : FS.t;
  fault_clock : Fault_plane.clock;
  fault_seed : int;
  link_delay_ms : float;
  wal_dir : string option;
  clients : Bft_mempool.Spec.t option;
}

let default ~n ~target_blocks =
  {
    n;
    delta_ms = 1000.;
    payload_bytes = 0;
    target_blocks;
    timeout_ms = 60_000.;
    mode = Threads;
    base_port = None;
    leader_of = (fun view -> view mod n);
    trace = false;
    protocol_name = "";
    faults = FS.empty;
    fault_clock = Fault_plane.Wall_ms;
    fault_seed = 17;
    link_delay_ms = 0.;
    wal_dir = None;
    clients = None;
  }

type commit = {
  c_height : int;
  c_view : int;
  c_hash : int64;
  c_time_ms : float;
  c_payload_id : int;
  c_payload_bytes : int;
}

type proposal = { p_height : int; p_hash : int64; p_time_ms : float }

type node_result = {
  id : int;
  commits : commit list;
  proposals : proposal list;
  trace_lines : string list;
  decode_errors : int;
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
  reconnects : int;
  restarts : int;
  malformed_by_peer : int array;
  dropped_by_peer : int array;
}

type fault_event = {
  fe_time_ms : float;
  fe_node : int;
  fe_kind : Bft_obs.Trace.fault;
}

type result = {
  nodes : node_result array;
  wall_ms : float;
  reached_target : bool;
  outcome : outcome;
  fault_events : fault_event list;
}

let empty_node_result ~n id =
  {
    id;
    commits = [];
    proposals = [];
    trace_lines = [];
    decode_errors = 0;
    messages_sent = 0;
    bytes_sent = 0;
    bytes_heal = 0;
    reconnects = 0;
    restarts = 0;
    malformed_by_peer = Array.make n 0;
    dropped_by_peer = Array.make n 0;
  }

(* --- transport-level hello frame (tag 0x00) ------------------------------- *)

let hello_tag = 0x00

let encode_hello ~id ~n ~protocol =
  Wire.encode_body ~tag:hello_tag (fun w ->
      W.uvar w id;
      W.uvar w n;
      W.bytes w protocol)

let decode_hello body =
  Wire.decode_body body (fun tag r ->
      if tag <> hello_tag then Wire.bad_tag tag;
      let id = R.uvar r in
      let n = R.uvar r in
      let protocol = R.bytes r in
      (id, n, protocol))

(* --- result blobs (process mode, child -> coordinator pipe) --------------- *)

let encode_node_result r =
  let w = W.create () in
  W.uvar w r.id;
  W.list w
    (fun w c ->
      W.uvar w c.c_height;
      W.uvar w c.c_view;
      W.u64 w c.c_hash;
      W.f64 w c.c_time_ms;
      (* Zigzag: equivocation payloads have negative ids. *)
      W.svar w c.c_payload_id;
      W.uvar w c.c_payload_bytes)
    r.commits;
  W.list w
    (fun w p ->
      W.uvar w p.p_height;
      W.u64 w p.p_hash;
      W.f64 w p.p_time_ms)
    r.proposals;
  W.uvar w r.decode_errors;
  W.uvar w r.messages_sent;
  W.uvar w r.bytes_sent;
  W.uvar w r.bytes_heal;
  W.uvar w r.reconnects;
  W.uvar w r.restarts;
  W.list w W.uvar (Array.to_list r.malformed_by_peer);
  W.list w W.uvar (Array.to_list r.dropped_by_peer);
  W.list w W.bytes r.trace_lines;
  W.contents w

let decode_node_result body =
  Wire.run_decoder (fun () ->
      let r = R.of_string body in
      let id = R.uvar r in
      let commits =
        R.list r (fun r ->
            let c_height = R.uvar r in
            let c_view = R.uvar r in
            let c_hash = R.u64 r in
            let c_time_ms = R.f64 r in
            let c_payload_id = R.svar r in
            let c_payload_bytes = R.uvar r in
            { c_height; c_view; c_hash; c_time_ms; c_payload_id; c_payload_bytes })
      in
      let proposals =
        R.list r (fun r ->
            let p_height = R.uvar r in
            let p_hash = R.u64 r in
            let p_time_ms = R.f64 r in
            { p_height; p_hash; p_time_ms })
      in
      let decode_errors = R.uvar r in
      let messages_sent = R.uvar r in
      let bytes_sent = R.uvar r in
      let bytes_heal = R.uvar r in
      let reconnects = R.uvar r in
      let restarts = R.uvar r in
      let malformed_by_peer = Array.of_list (R.list r R.uvar) in
      let dropped_by_peer = Array.of_list (R.list r R.uvar) in
      let trace_lines = R.list r R.bytes in
      R.expect_end r;
      {
        id;
        commits;
        proposals;
        trace_lines;
        decode_errors;
        messages_sent;
        bytes_sent;
        bytes_heal;
        reconnects;
        restarts;
        malformed_by_peer;
        dropped_by_peer;
      })

(* --- one validator incarnation -------------------------------------------- *)

let now_ms t0 = (Unix.gettimeofday () -. t0) *. 1000.
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The executor polls the stop flag between select rounds; this caps how
   long shutdown waits on an idle cluster without costing anything on an
   active one (inbound traffic wakes select immediately). *)
let max_select_s = 0.02

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write [s] to [tmp] through a bare fd (no channel buffer to allocate),
   then rename it over [path]: a reader sees the old snapshot or the new
   one, never a torn write. *)
let write_file_atomic ~tmp ~path s =
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  Fun.protect ~finally:(fun () -> close_quiet fd) (fun () -> Wire.write_all fd s);
  Unix.rename tmp path

(* How long an accepted connection may take to deliver its hello frame.
   Dialers write the hello right after [connect], so only a dead or
   hostile connector comes close. *)
let hello_timeout_s = 0.5

(* How one incarnation of a validator ended: externally stopped (normal
   shutdown, deadline, executor exception) or crashed by the fault plane.
   A crash carries the final WAL snapshot so the next incarnation can be
   rebuilt from it even when no [wal_dir] is configured. *)
type exit_reason = Stopped | Crashed of string

let node_main (type m) (module P : Protocol_intf.S with type msg = m)
    (cfg : config) ~id ~incarnation ~t0 ~listener ~(ports : int array)
    ~(plane : Fault_plane.t) ~(wal_blob : string option)
    ~(wal_file : string option) ~(stop : bool Atomic.t)
    ~(crash_flag : bool Atomic.t) ~on_done ~(on_recover_order : int -> unit)
    ~(ctl_fd : Unix.file_descr option) ~register_teardown :
    node_result * exit_reason =
  let module H = Node_host.Make (P) in
  let commits = ref [] and done_sent = ref false in
  let proposals = ref [] in
  let trace = if cfg.trace then Some (Bft_obs.Trace.create ()) else None in
  let malformed = Array.make cfg.n 0 in
  let crashing = ref false in
  let wal = H.wal_of_snapshot ~id wal_blob in
  let hello =
    Wire.frame (encode_hello ~id ~n:cfg.n ~protocol:cfg.protocol_name)
  in
  let backoff_cap_ms =
    (* Under the logical clock the whole run is paced by [link_delay_ms];
       a recovered peer must be redialed well within its catch-up slack,
       so the backoff cap shrinks with the pacing. *)
    match Fault_plane.clock plane with
    | Fault_plane.Views -> Float.max 25. (cfg.link_delay_ms *. 2.)
    | Fault_plane.Wall_ms -> 500.
  in
  let cm =
    Conn_manager.create ~backoff_cap_ms ~n:cfg.n ~id ~ports ~hello
      ~now_ms:(fun () -> now_ms t0)
      ~plane ()
  in
  (* Wall-clock timers; touched only by the executor thread. *)
  let timers : (float * bool ref * (unit -> unit)) list ref = ref [] in
  let set_timer delay f =
    let cancelled = ref false in
    timers := (now_ms t0 +. delay, cancelled, f) :: !timers;
    fun () -> cancelled := true
  in
  let next_deadline () =
    List.fold_left
      (fun acc (d, c, _) -> if !c then acc else Float.min acc d)
      infinity !timers
  in
  let selfq : m Queue.t = Queue.create () in
  let node_ref = ref None in
  let handler = ref (fun ~src:_ (_ : m) -> ()) in
  let view () =
    match !node_ref with Some nd -> P.current_view nd | None -> 0
  in
  (* Output commit: the WAL snapshot reaches the file once per loop
     iteration, after that iteration's handlers and timers and before
     {!Conn_manager.release} hands their frames to the sender thread, so no
     vote is on the wire before the state that binds it is on disk.  The
     host's fault step (the node's own logical crash, the observer's
     recovery orders) runs inside the handler and timer callbacks. *)
  let persist_wal =
    match wal_file with
    | None -> fun () -> ()
    | Some path ->
        let tmp = path ^ ".tmp" in
        let last = ref (Option.value wal_blob ~default:"") in
        fun () ->
          (* The snapshot is cached until the next record: an unchanged log
             returns the same string, and [String.equal] tests physical
             equality first. *)
          let s = P.wal_encode wal in
          if not (String.equal s !last) then begin
            last := s;
            try write_file_atomic ~tmp ~path s
            with Unix.Unix_error _ ->
              Log.err (fun m -> m "node %d: cannot persist WAL" id)
          end
  in
  (* Client-traffic ingestion: each validator rebuilds the identical seeded
     arrival stream locally, so a leader's watermark observation is the only
     nondeterminism a batch carries — and under the [Views] spec clock even
     that is a pure function of the view, making socket chains bit-identical
     to simulator chains.  Latency accounting happens post-hoc in the
     coordinator ([Net_harness.client_stats], used by [moonshot run-net
     --clients] and [moonshot crossval --scenario clients]), against the
     quorum-commit times of [quorum_commits]. *)
  let ingest =
    Option.map
      (fun spec ->
        Bft_mempool.Ingest.create ~spec ~n:cfg.n ~view_ms:cfg.delta_ms ())
      cfg.clients
  in
  let policy =
    {
      Node_host.n = cfg.n;
      delta = cfg.delta_ms;
      leader_of = cfg.leader_of;
      payload_bytes = cfg.payload_bytes;
      ingest;
      trace;
      faults = Fault_plane.logical plane;
    }
  in
  let io =
    {
      Node_host.now = (fun () -> now_ms t0);
      send =
        (fun dst msg ->
          if dst = id then Queue.push msg selfq
          else
            Conn_manager.send cm ~dst ~src_view:(view ())
              (Wire.frame (P.encode_msg msg)));
      multicast =
        (fun msg ->
          let frame = Wire.frame (P.encode_msg msg) in
          let src_view = view () in
          for dst = 0 to cfg.n - 1 do
            if dst = id then Queue.push msg selfq
            else Conn_manager.send cm ~dst ~src_view frame
          done);
      set_timer;
    }
  in
  let host =
    H.create policy ~incarnation ~wal ~id io
      ~on_spawn:(fun node h ->
        node_ref := Some node;
        handler := h)
      ~on_commit:(fun b ->
        commits :=
          {
            c_height = b.Block.height;
            c_view = b.Block.view;
            c_hash = Hash.to_int64 b.Block.hash;
            c_time_ms = now_ms t0;
            c_payload_id = b.Block.payload.Payload.id;
            c_payload_bytes = b.Block.payload.Payload.size_bytes;
          }
          :: !commits;
        (* Height-based, not count-based: a recovered incarnation starts
           from an empty commit log and reaches the target by syncing,
           whether or not every historic height is replayed through
           [on_commit]. *)
        if b.Block.height >= cfg.target_blocks && not !done_sent then begin
          done_sent := true;
          on_done ()
        end)
      ~on_propose:(fun b ->
        proposals :=
          {
            p_height = b.Block.height;
            p_hash = Hash.to_int64 b.Block.hash;
            p_time_ms = now_ms t0;
          }
          :: !proposals)
      ~on_verdict:(fun v ->
        if v.Node_host.crash then crashing := true;
        List.iter on_recover_order v.Node_host.recover)
  in
  let conns : (Unix.file_descr * int) list ref = ref [] in
  let close_conn fd =
    conns := List.filter (fun (fd', _) -> fd' <> fd) !conns;
    close_quiet fd
  in
  register_teardown (fun () ->
      List.iter (fun (fd, _) -> close_quiet fd) !conns;
      close_quiet listener;
      Conn_manager.force_close cm);
  (try
     H.spawn host;
     (* Set by every handler or timer run; the end of a loop iteration
        persists only when something ran. *)
     let ran = ref false in
     let deliver ~src ~bytes msg =
       ran := true;
       H.delivered host ~src ~bytes msg;
       !handler ~src msg
     in
     let rec drain_self () =
       if not !crashing then
         match Queue.take_opt selfq with
         | None -> ()
         | Some msg ->
             let bytes =
               if cfg.trace then String.length (P.encode_msg msg) + 4 else 0
             in
             deliver ~src:id ~bytes msg;
             drain_self ()
     in
     let fire_due () =
       let now = now_ms t0 in
       let due, rest =
         List.partition (fun (d, c, _) -> (not !c) && d <= now) !timers
       in
       timers := List.filter (fun (_, c, _) -> not !c) rest;
       List.iter
         (fun (_, _, f) ->
           if not !crashing then begin
             ran := true;
             f ()
           end)
         (List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) due)
     in
     let end_iteration () =
       if !ran then begin
         ran := false;
         persist_wal ()
       end;
       Conn_manager.release cm
     in
     let accept_conn () =
       match Unix.accept listener with
       | exception Unix.Unix_error _ -> ()
       | fd, _ -> (
           (try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ());
           (* The hello read blocks the executor: bound it, so a connector
              that never sends one (a peer killed mid-dial) costs at most
              [hello_timeout_s], then lift the bound for the connection's
              lifetime. *)
           let hello () =
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO hello_timeout_s;
             let r = Wire.read_frame fd in
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.;
             r
           in
           match hello () with
           | Ok body -> (
               match decode_hello body with
               | Ok (src, n', proto)
                 when src >= 0 && src < cfg.n && src <> id && n' = cfg.n
                      && String.equal proto cfg.protocol_name ->
                   conns := (fd, src) :: !conns
               | Ok _ | Error _ -> close_quiet fd)
           | Error _ | (exception Unix.Unix_error _) -> close_quiet fd)
     in
     let handle_ctl fd =
       let buf = Bytes.create 1 in
       match Unix.read fd buf 0 1 with
       | 0 -> Atomic.set stop true
       | _ -> (
           match Bytes.get buf 0 with
           | 'K' -> Atomic.set crash_flag true
           | _ -> Atomic.set stop true)
       | exception Unix.Unix_error _ -> Atomic.set stop true
     in
     H.start host;
     H.fault_step host;
     ran := true;
     drain_self ();
     end_iteration ();
     let hard_deadline = cfg.timeout_ms +. 5000. in
     while (not (Atomic.get stop)) && not !crashing do
       (* Wall-clock crashes land at loop-iteration boundaries, never
          inside a handler, so the WAL file on disk is always an
          end-of-iteration snapshot and every frame of the iteration has
          been released. *)
       if Atomic.get crash_flag then crashing := true
       else if now_ms t0 > hard_deadline then Atomic.set stop true
       else begin
         (let timeout =
            let d = (next_deadline () -. now_ms t0) /. 1000. in
            Float.max 0. (Float.min d max_select_s)
          in
          let fds =
            (listener :: (match ctl_fd with Some f -> [ f ] | None -> []))
            @ List.map fst !conns
          in
          match Unix.select fds [] [] timeout with
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | exception Unix.Unix_error (EBADF, _, _) ->
              (* Watchdog force-closed our sockets under us. *)
              Atomic.set stop true
          | ready, _, _ ->
              List.iter
                (fun fd ->
                  if !crashing then ()
                  else if fd = listener then accept_conn ()
                  else if ctl_fd = Some fd then handle_ctl fd
                  else
                    match List.assoc_opt fd !conns with
                    | None -> ()
                    | Some src -> (
                        match Wire.read_frame fd with
                        | Ok body -> (
                            match P.decode_msg body with
                            | Ok msg ->
                                deliver ~src ~bytes:(String.length body + 4) msg;
                                drain_self ()
                            | Error reason ->
                                malformed.(src) <- malformed.(src) + 1;
                                Log.debug (fun m ->
                                    m "node %d: dropped frame from %d: %s" id
                                      src reason))
                        | Error `Closed -> close_conn fd
                        | Error (`Frame_error e) ->
                            malformed.(src) <- malformed.(src) + 1;
                            Log.debug (fun m ->
                                m "node %d: framing error from %d: %s" id src
                                  (Wire.error_to_string e));
                            close_conn fd
                        | exception Unix.Unix_error _ -> close_conn fd))
                ready);
         fire_due ();
         drain_self ();
         end_iteration ()
       end
     done
   with exn ->
     Log.err (fun m ->
         m "node %d: executor died: %s" id (Printexc.to_string exn)));
  if !crashing then begin
    H.emit host Bft_obs.Trace.(Fault Crash);
    (* The simulator treats every send a handler issued before the crash
       point as already on the wire.  The crashing iteration has persisted
       and released its frames ([end_iteration]); drain the sender queue
       (including paced frames) before dying so the socket run agrees. *)
    ignore
      (Conn_manager.flush cm
         ~timeout_s:(0.25 +. (3. *. cfg.link_delay_ms /. 1000.)))
  end;
  (* Closing the inbound side first unblocks every peer sender that might
     be mid-write to us, then our own sender is reaped.  A crashed
     incarnation also closes its listener: frames sent while the node is
     down must be lost, not parked in an accept backlog for the next
     incarnation to read. *)
  List.iter (fun (fd, _) -> close_quiet fd) !conns;
  close_quiet listener;
  Conn_manager.shutdown cm;
  let st = Conn_manager.stats cm in
  Array.iteri
    (fun peer m ->
      let d = st.Conn_manager.dropped.(peer) in
      if peer <> id && (m > 0 || d > 0) then
        H.emit host
          (Bft_obs.Trace.Link_report { peer; malformed = m; dropped = d }))
    malformed;
  let trace_lines =
    match trace with
    | None -> []
    | Some sink ->
        List.map Bft_obs.Trace.event_to_json (Bft_obs.Trace.events sink)
  in
  let r =
    {
      id;
      commits = List.rev !commits;
      proposals = List.rev !proposals;
      trace_lines;
      decode_errors = Array.fold_left ( + ) 0 malformed;
      messages_sent = st.Conn_manager.messages_sent;
      bytes_sent = st.Conn_manager.bytes_sent;
      bytes_heal = st.Conn_manager.bytes_heal;
      reconnects = st.Conn_manager.reconnects;
      restarts = incarnation;
      malformed_by_peer = Array.copy malformed;
      dropped_by_peer = st.Conn_manager.dropped;
    }
  in
  (r, if !crashing then Crashed (P.wal_encode wal) else Stopped)

(* --- coordination --------------------------------------------------------- *)

let make_listener ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     close_quiet fd;
     raise e);
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, actual) -> (fd, actual)
  | _ -> assert false

let validate cfg =
  if cfg.n < 1 then invalid_arg "Tcp.run: n < 1";
  if cfg.target_blocks < 1 then invalid_arg "Tcp.run: target_blocks < 1";
  if cfg.timeout_ms <= 0. then invalid_arg "Tcp.run: non-positive timeout";
  if cfg.link_delay_ms < 0. then invalid_arg "Tcp.run: negative link delay";
  (match cfg.base_port with
  | Some p when p < 1 || p + cfg.n > 65536 ->
      invalid_arg "Tcp.run: port range out of bounds"
  | _ -> ());
  if not (FS.is_empty cfg.faults) then
    FS.validate ~n:cfg.n
      ~f:((cfg.n - 1) / 3)
      ~byzantine:[] cfg.faults

(* The coordinator's fault driver: empty under the view clock, whose
   crashes and recoveries the nodes' own fault steps trigger. *)
let wall_timeline cfg =
  match cfg.fault_clock with
  | Fault_plane.Wall_ms -> Fault_plane.wall_events cfg.faults
  | Fault_plane.Views -> []

let sort_fault_log log =
  List.stable_sort
    (fun a b -> Float.compare a.fe_time_ms b.fe_time_ms)
    (List.rev log)

(* --- threads mode ---------------------------------------------------------- *)

(* Per-node supervision slot: the channel between the coordinator (wall
   driver, logical recovery orders, watchdog) and the node's supervisor
   loop. *)
type slot = {
  sm : Mutex.t;
  sc : Condition.t;
  mutable recover_ordered : bool;
  crash_flag : bool Atomic.t;
  mutable teardown : unit -> unit;
}

let merge_incarnations ~n ~id rs =
  match rs with
  | [] -> empty_node_result ~n id
  | _ ->
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      let sum_arr f =
        let acc = Array.make n 0 in
        List.iter
          (fun r ->
            Array.iteri
              (fun j v -> if j < n then acc.(j) <- acc.(j) + v)
              (f r))
          rs;
        acc
      in
      {
        id;
        commits = List.concat_map (fun r -> r.commits) rs;
        proposals = List.concat_map (fun r -> r.proposals) rs;
        trace_lines = List.concat_map (fun r -> r.trace_lines) rs;
        decode_errors = sum (fun r -> r.decode_errors);
        messages_sent = sum (fun r -> r.messages_sent);
        bytes_sent = sum (fun r -> r.bytes_sent);
        bytes_heal = sum (fun r -> r.bytes_heal);
        reconnects = sum (fun r -> r.reconnects);
        restarts = List.length rs - 1;
        malformed_by_peer = sum_arr (fun r -> r.malformed_by_peer);
        dropped_by_peer = sum_arr (fun r -> r.dropped_by_peer);
      }

let run_threads (type m) (module P : Protocol_intf.S with type msg = m) cfg
    ~listeners ~ports ~plane ~t0 =
  let stop = Atomic.make false in
  let done_flags = Array.init cfg.n (fun _ -> Atomic.make false) in
  let slots =
    Array.init cfg.n (fun _ ->
        {
          sm = Mutex.create ();
          sc = Condition.create ();
          recover_ordered = false;
          crash_flag = Atomic.make false;
          teardown = (fun () -> ());
        })
  in
  let fault_log = ref [] in
  let flm = Mutex.create () in
  let log_fault ~node fe_kind =
    Mutex.lock flm;
    fault_log := { fe_time_ms = now_ms t0; fe_node = node; fe_kind } :: !fault_log;
    Mutex.unlock flm
  in
  let results : node_result list array = Array.make cfg.n [] in
  let order_recover node =
    let s = slots.(node) in
    Mutex.lock s.sm;
    s.recover_ordered <- true;
    Condition.broadcast s.sc;
    Mutex.unlock s.sm
  in
  let supervisor i listener0 =
    let wal_file =
      Option.map
        (fun d -> Filename.concat d (Printf.sprintf "node-%d.wal" i))
        cfg.wal_dir
    in
    let rec go incarnation listener wal_blob =
      let r, reason =
        node_main
          (module P : Protocol_intf.S with type msg = m)
          cfg ~id:i ~incarnation ~t0 ~listener ~ports ~plane ~wal_blob
          ~wal_file ~stop ~crash_flag:slots.(i).crash_flag
          ~on_done:(fun () -> Atomic.set done_flags.(i) true)
          ~on_recover_order:order_recover ~ctl_fd:None
          ~register_teardown:(fun f -> slots.(i).teardown <- f)
      in
      results.(i) <- r :: results.(i);
      match reason with
      | Stopped -> ()
      | Crashed blob -> (
          log_fault ~node:i Bft_obs.Trace.Crash;
          let s = slots.(i) in
          Mutex.lock s.sm;
          while (not s.recover_ordered) && not (Atomic.get stop) do
            Condition.wait s.sc s.sm
          done;
          let ordered = s.recover_ordered in
          s.recover_ordered <- false;
          Mutex.unlock s.sm;
          if ordered && not (Atomic.get stop) then begin
            Atomic.set s.crash_flag false;
            match make_listener ~port:ports.(i) with
            | exception _ ->
                Log.err (fun m ->
                    m "node %d: cannot rebind port %d for recovery" i
                      ports.(i))
            | listener', _ ->
                log_fault ~node:i Bft_obs.Trace.Recover;
                go (incarnation + 1) listener' (Some blob)
          end)
    in
    go 0 listener0 None
  in
  let threads =
    Array.mapi
      (fun i (listener, _) -> Thread.create (fun () -> supervisor i listener) ())
      listeners
  in
  (* Wall driver: fires scheduled crashes (flag, picked up at the next
     event boundary), recoveries (supervisor wake-up) and records window
     edges for the fault-event record. *)
  let driver () =
    List.iter
      (fun (at, ev) ->
        let rec wait () =
          if not (Atomic.get stop) then begin
            let remaining = (t0 +. (at /. 1000.)) -. Unix.gettimeofday () in
            if remaining > 0. then begin
              Thread.delay (Float.min remaining max_select_s);
              wait ()
            end
          end
        in
        wait ();
        if not (Atomic.get stop) then
          match ev with
          | Fault_plane.Wall_crash node ->
              Atomic.set slots.(node).crash_flag true
          | Fault_plane.Wall_recover node -> order_recover node
          | Fault_plane.Wall_edge f -> log_fault ~node:(-1) f)
      (wall_timeline cfg)
  in
  let driver_t =
    if wall_timeline cfg = [] then None
    else Some (Thread.create driver ())
  in
  let deadline = t0 +. (cfg.timeout_ms /. 1000.) in
  let all_done () = Array.for_all Atomic.get done_flags in
  while (not (all_done ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  let reached = all_done () in
  Atomic.set stop true;
  Array.iter
    (fun s ->
      Mutex.lock s.sm;
      Condition.broadcast s.sc;
      Mutex.unlock s.sm)
    slots;
  (* Watchdog: if the supervisors have not joined shortly after the stop
     flag, force-close every incarnation's sockets out from under it.
     [Timed_out] means exactly that this teardown was needed. *)
  let joined = Atomic.make false in
  let forced = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let d = Unix.gettimeofday () +. 2.0 in
        while (not (Atomic.get joined)) && Unix.gettimeofday () < d do
          Thread.delay 0.05
        done;
        if not (Atomic.get joined) then begin
          Atomic.set forced true;
          Array.iter (fun s -> try s.teardown () with _ -> ()) slots
        end)
      ()
  in
  Array.iter Thread.join threads;
  Atomic.set joined true;
  (match driver_t with Some th -> Thread.join th | None -> ());
  Thread.join watchdog;
  {
    nodes =
      Array.mapi
        (fun i rs -> merge_incarnations ~n:cfg.n ~id:i (List.rev rs))
        results;
    wall_ms = now_ms t0;
    reached_target = reached;
    outcome = (if Atomic.get forced then Timed_out else Completed);
    fault_events = sort_fault_log !fault_log;
  }

(* --- process mode ---------------------------------------------------------- *)

(* Coordinator-side view of one validator process.  The result pipe
   carries a byte protocol: 'D' = target reached, 'O' node = the observer
   ordered the logical recovery of [node], 'C' = the child is about to
   SIGKILL itself for a crash, 'R' = a result blob follows; EOF = the
   process died (expected exactly when a crash was announced or ordered —
   the crashing child's volatile state and result die with it). *)
type child = {
  mutable pid : int;
  mutable rfd : Unix.file_descr;
  mutable cwfd : Unix.file_descr;
  mutable alive : bool;
  mutable got_r : bool;
  mutable target_met : bool;
  mutable down : bool;
  mutable dead : bool;
  mutable restarts : int;
  mutable recover_pending : bool;
  mutable crash_expected : bool;
  mutable reaped : bool;
}

let run_processes (type m) (module P : Protocol_intf.S with type msg = m) cfg
    ~(listeners : (Unix.file_descr * int) array) ~ports ~plane ~t0 =
  let children =
    Array.init cfg.n (fun _ ->
        {
          pid = -1;
          rfd = Unix.stdin;
          cwfd = Unix.stdin;
          alive = false;
          got_r = false;
          target_met = false;
          down = false;
          dead = false;
          restarts = 0;
          recover_pending = false;
          crash_expected = false;
          reaped = false;
        })
  in
  (* Initial listeners are owned by the parent until the matching child is
     forked; after the initial round they are closed parent-side and a
     re-spawned child binds its (fixed) port itself. *)
  let listener_opts = Array.map (fun l -> Some l) listeners in
  let spawn i ~incarnation =
    let r, w = Unix.pipe () in
    let cr, cw = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        close_quiet r;
        close_quiet cw;
        Array.iteri
          (fun j c ->
            if j <> i && c.alive then begin
              close_quiet c.rfd;
              close_quiet c.cwfd
            end)
          children;
        Array.iteri
          (fun j l ->
            match l with
            | Some (fd, _) when j <> i -> close_quiet fd
            | _ -> ())
          listener_opts;
        let listener =
          match listener_opts.(i) with
          | Some (fd, _) -> fd
          | None -> fst (make_listener ~port:ports.(i))
        in
        let wal_file =
          Option.map
            (fun d -> Filename.concat d (Printf.sprintf "node-%d.wal" i))
            cfg.wal_dir
        in
        let wal_blob =
          match wal_file with
          | Some path when incarnation > 0 && Sys.file_exists path -> (
              try Some (read_file path) with Sys_error _ -> None)
          | _ -> None
        in
        let stop = Atomic.make false in
        let crash_flag = Atomic.make false in
        let result, reason =
          try
            node_main
              (module P : Protocol_intf.S with type msg = m)
              cfg ~id:i ~incarnation ~t0 ~listener ~ports ~plane ~wal_blob
              ~wal_file ~stop ~crash_flag
              ~on_done:(fun () ->
                try ignore (Unix.write_substring w "D" 0 1)
                with Unix.Unix_error _ -> ())
              ~on_recover_order:(fun node ->
                let b = Bytes.create 2 in
                Bytes.set b 0 'O';
                Bytes.set b 1 (Char.chr (node land 0xff));
                try ignore (Unix.write w b 0 2)
                with Unix.Unix_error _ -> ())
              ~ctl_fd:(Some cr)
              ~register_teardown:(fun _ -> ())
          with _ -> (empty_node_result ~n:cfg.n i, Stopped)
        in
        (match reason with
        | Crashed _ ->
            (* A real crash: the process is killed outright, its volatile
               state and pending result die with it.  Only the WAL file
               survives for the next incarnation. *)
            (try ignore (Unix.write_substring w "C" 0 1)
             with Unix.Unix_error _ -> ());
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | Stopped -> ());
        (try
           ignore (Unix.write_substring w "R" 0 1);
           Wire.write_all w (Wire.frame (encode_node_result result))
         with _ -> ());
        close_quiet w;
        Unix._exit 0
    | pid ->
        close_quiet w;
        close_quiet cr;
        (match listener_opts.(i) with
        | Some (fd, _) ->
            close_quiet fd;
            listener_opts.(i) <- None
        | None -> ());
        let c = children.(i) in
        c.pid <- pid;
        c.rfd <- r;
        c.cwfd <- cw;
        c.alive <- true;
        c.got_r <- false;
        c.target_met <- false;
        c.down <- false;
        c.crash_expected <- false;
        c.reaped <- false;
        c.restarts <- incarnation
  in
  for i = 0 to cfg.n - 1 do
    spawn i ~incarnation:0
  done;
  let fault_log = ref [] in
  let log_fault node fe_kind =
    fault_log := { fe_time_ms = now_ms t0; fe_node = node; fe_kind } :: !fault_log
  in
  let respawn i =
    let c = children.(i) in
    log_fault i Bft_obs.Trace.Recover;
    spawn i ~incarnation:(c.restarts + 1)
  in
  let order_recover node =
    let c = children.(node) in
    if c.down then respawn node
    else if not c.dead then c.recover_pending <- true
  in
  let timeline = ref (wall_timeline cfg) in
  let fire_due_wall () =
    let now = now_ms t0 in
    let rec go () =
      match !timeline with
      | (at, ev) :: rest when at <= now ->
          timeline := rest;
          (match ev with
          | Fault_plane.Wall_crash node ->
              let c = children.(node) in
              if c.alive && not c.crash_expected then begin
                c.crash_expected <- true;
                try ignore (Unix.write_substring c.cwfd "K" 0 1)
                with Unix.Unix_error _ -> ()
              end
          | Fault_plane.Wall_recover node -> order_recover node
          | Fault_plane.Wall_edge f -> log_fault (-1) f);
          go ()
      | _ -> ()
    in
    go ()
  in
  let handle_eof i =
    let c = children.(i) in
    c.alive <- false;
    close_quiet c.rfd;
    close_quiet c.cwfd;
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    c.reaped <- true;
    if c.crash_expected && not c.down then begin
      c.down <- true;
      log_fault i Bft_obs.Trace.Crash;
      if c.recover_pending then begin
        c.recover_pending <- false;
        respawn i
      end
    end
    else c.dead <- true
  in
  let handle_byte i =
    let c = children.(i) in
    let buf = Bytes.create 1 in
    match Unix.read c.rfd buf 0 1 with
    | 0 -> handle_eof i
    | _ -> (
        match Bytes.get buf 0 with
        | 'D' -> c.target_met <- true
        | 'R' -> c.got_r <- true
        | 'C' -> c.crash_expected <- true
        | 'O' -> (
            match Unix.read c.rfd buf 0 1 with
            | 0 -> handle_eof i
            | _ ->
                let node = Char.code (Bytes.get buf 0) in
                if node < cfg.n then order_recover node
            | exception Unix.Unix_error _ -> handle_eof i)
        | _ -> ())
    | exception Unix.Unix_error _ -> handle_eof i
  in
  (* Phase 1: run until every child has either reported its target, sent
     an early result (executor error), or died for good — with crashed
     children re-spawned along the way. *)
  let settled c = c.target_met || c.got_r || c.dead in
  let deadline = t0 +. (cfg.timeout_ms /. 1000.) in
  let pending () =
    Array.exists (fun c -> (not (settled c)) || c.down) children
    && Unix.gettimeofday () < deadline
  in
  while pending () do
    fire_due_wall ();
    let fds =
      Array.to_list children
      |> List.filter_map (fun c ->
             if c.alive && not c.got_r then Some c.rfd else None)
    in
    if fds = [] then Thread.delay 0.01
    else
      match Unix.select fds [] [] max_select_s with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              let idx = ref (-1) in
              Array.iteri
                (fun i c -> if c.alive && c.rfd = fd then idx := i)
                children;
              if !idx >= 0 then handle_byte !idx)
            ready
  done;
  let reached = Array.for_all (fun c -> c.target_met) children in
  (* Phase 2: stop every live child, collect result blobs, then reap with
     TERM -> KILL escalation.  Needing SIGKILL marks the run Timed_out. *)
  Array.iter
    (fun c ->
      if c.alive then
        try ignore (Unix.write_substring c.cwfd "S" 0 1)
        with Unix.Unix_error _ -> ())
    children;
  let read_result i =
    let c = children.(i) in
    if not c.alive then { (empty_node_result ~n:cfg.n i) with restarts = c.restarts }
    else begin
      let blob_deadline = Unix.gettimeofday () +. 8. in
      let rec await_marker () =
        if c.got_r then true
        else
          match Unix.select [ c.rfd ] [] [] 0.1 with
          | exception Unix.Unix_error (EINTR, _, _) -> await_marker ()
          | [], _, _ ->
              if Unix.gettimeofday () < blob_deadline then await_marker ()
              else false
          | _ -> (
              let buf = Bytes.create 1 in
              match Unix.read c.rfd buf 0 1 with
              | 0 -> false
              | _ ->
                  if Bytes.get buf 0 = 'R' then true
                  else if Bytes.get buf 0 = 'O' then begin
                    (* late recovery order; consume its index byte *)
                    (try ignore (Unix.read c.rfd buf 0 1)
                     with Unix.Unix_error _ -> ());
                    await_marker ()
                  end
                  else await_marker ()
              | exception Unix.Unix_error _ -> false)
      in
      let result =
        if not (await_marker ()) then
          { (empty_node_result ~n:cfg.n i) with restarts = c.restarts }
        else
          match Wire.read_frame c.rfd with
          | Ok body -> (
              match decode_node_result body with
              | Ok nr -> { nr with restarts = c.restarts }
              | Error _ ->
                  { (empty_node_result ~n:cfg.n i) with restarts = c.restarts })
          | Error _ | (exception Unix.Unix_error _) ->
              { (empty_node_result ~n:cfg.n i) with restarts = c.restarts }
      in
      close_quiet c.rfd;
      close_quiet c.cwfd;
      result
    end
  in
  let nodes = Array.init cfg.n read_result in
  let forced = ref false in
  let rec reap_poll pid until =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () < until then begin
          Thread.delay 0.02;
          reap_poll pid until
        end
        else false
    | _ -> true
    | exception Unix.Unix_error _ -> true
  in
  Array.iter
    (fun c ->
      if not c.reaped then begin
        if not (reap_poll c.pid (Unix.gettimeofday () +. 0.3)) then begin
          (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
          if not (reap_poll c.pid (Unix.gettimeofday () +. 0.5)) then begin
            forced := true;
            (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()
          end
        end;
        c.reaped <- true
      end)
    children;
  {
    nodes;
    wall_ms = now_ms t0;
    reached_target = reached;
    outcome = (if !forced then Timed_out else Completed);
    fault_events = sort_fault_log !fault_log;
  }

(* --- entry point ----------------------------------------------------------- *)

let default_wal_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "moonshot-wal-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error _ -> ());
  d

let run (type m) (module P : Protocol_intf.S with type msg = m) cfg =
  validate cfg;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let plane =
    Fault_plane.compile ~n:cfg.n ~clock:cfg.fault_clock ~seed:cfg.fault_seed
      ~link_delay_ms:cfg.link_delay_ms
      ~heal_bound_ms:(Bft_obs.Liveness.default_k *. cfg.delta_ms)
      cfg.faults
  in
  let cfg =
    (* Process-mode crash-recovery lives or dies by the WAL file: without
       one a killed child could only restart empty.  Default to a
       per-process temp directory when the schedule crashes anyone. *)
    if
      cfg.wal_dir = None && cfg.mode = Processes
      && FS.crash_count cfg.faults > 0
    then { cfg with wal_dir = Some (default_wal_dir ()) }
    else cfg
  in
  (match cfg.wal_dir with
  | None -> ()
  | Some d ->
      (try Unix.mkdir d 0o700 with Unix.Unix_error _ -> ());
      for i = 0 to cfg.n - 1 do
        let p = Filename.concat d (Printf.sprintf "node-%d.wal" i) in
        try Sys.remove p with Sys_error _ -> ()
      done);
  let listeners =
    Array.init cfg.n (fun i ->
        make_listener
          ~port:(match cfg.base_port with None -> 0 | Some b -> b + i))
  in
  let ports = Array.map snd listeners in
  let t0 = Unix.gettimeofday () in
  match cfg.mode with
  | Threads ->
      run_threads
        (module P : Protocol_intf.S with type msg = m)
        cfg ~listeners ~ports ~plane ~t0
  | Processes ->
      run_processes
        (module P : Protocol_intf.S with type msg = m)
        cfg ~listeners ~ports ~plane ~t0

(* --- post-hoc aggregation -------------------------------------------------- *)

let quorum_commits result ~quorum =
  (* Per block hash, each node's earliest commit of it: a recovered node
     may re-commit a block it committed before crashing. *)
  let tbl : (int64, (int * commit) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nr ->
      List.iter
        (fun c ->
          let prev =
            Option.value (Hashtbl.find_opt tbl c.c_hash) ~default:[]
          in
          match List.assoc_opt nr.id prev with
          | Some c0 when c0.c_time_ms <= c.c_time_ms -> ()
          | _ ->
              Hashtbl.replace tbl c.c_hash
                ((nr.id, c) :: List.remove_assoc nr.id prev))
        nr.commits)
    result.nodes;
  Hashtbl.fold
    (fun _hash entries acc ->
      if List.length entries >= quorum then
        let sorted =
          List.sort
            (fun (_, a) (_, b) -> Float.compare a.c_time_ms b.c_time_ms)
            entries
        in
        List.nth sorted (quorum - 1) :: acc
      else acc)
    tbl []

let t_of_line line =
  try Scanf.sscanf line "{\"t\":%f" (fun t -> t) with _ -> 0.

let merged_trace result ~quorum =
  let tagged =
    Array.fold_left
      (fun acc nr ->
        List.fold_left
          (fun acc line -> (t_of_line line, nr.id, line) :: acc)
          acc nr.trace_lines)
      [] result.nodes
  in
  let qlines =
    List.map
      (fun (qnode, qc) ->
        ( qc.c_time_ms,
          qnode,
          Bft_obs.Trace.event_to_json
            {
              Bft_obs.Trace.time = qc.c_time_ms;
              node = qnode;
              kind =
                Bft_obs.Trace.Quorum_commit
                  { view = qc.c_view; height = qc.c_height };
            } ))
      (quorum_commits result ~quorum)
  in
  let flines =
    List.map
      (fun fe ->
        ( fe.fe_time_ms,
          fe.fe_node,
          Bft_obs.Trace.event_to_json
            {
              Bft_obs.Trace.time = fe.fe_time_ms;
              node = fe.fe_node;
              kind = Bft_obs.Trace.Fault fe.fe_kind;
            } ))
      result.fault_events
  in
  List.rev tagged @ qlines @ flines
  |> List.stable_sort (fun (ta, na, _) (tb, nb, _) ->
         match Float.compare ta tb with
         | 0 -> Int.compare na nb
         | c -> c)
  |> List.map (fun (_, _, line) -> line)

let quorum_latencies result ~quorum =
  let created : (int64, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nr ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt created p.p_hash with
          | Some t when t <= p.p_time_ms -> ()
          | _ -> Hashtbl.replace created p.p_hash p.p_time_ms)
        nr.proposals)
    result.nodes;
  quorum_commits result ~quorum
  |> List.filter_map (fun (_, qc) ->
         Option.map
           (fun t -> (qc.c_height, qc.c_time_ms -. t))
           (Hashtbl.find_opt created qc.c_hash))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
