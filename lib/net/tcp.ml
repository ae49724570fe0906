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

(* Stop and crash orders arrive on the control pipe and wake the
   executor's [select] at once; inbound traffic and due timers bound the
   rest of its waits.  The cap is left for the two ends that no pipe
   announces: the executor's own hard deadline, and a forced teardown,
   whose closure closes the incarnation's sockets from the coordinator's
   thread without waking a [select] already blocked on them (the next
   call fails with [EBADF]). *)
let max_select_s = 0.02

(* A short message on a report or control pipe.  A reader that is gone is
   no reason to raise. *)
let post fd s = try Wire.write_all fd s with Unix.Unix_error _ -> ()

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
    ~(wal_file : string option) ~(report : Unix.file_descr)
    ~(ctl_fd : Unix.file_descr) ~register_teardown : node_result * exit_reason
    =
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
          post report "D"
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
        List.iter
          (fun node -> post report (Printf.sprintf "O%c" (Char.chr node)))
          v.Node_host.recover)
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
     let stop = ref false and crash_ordered = ref false in
     let handle_ctl () =
       let buf = Bytes.create 1 in
       match Unix.read ctl_fd buf 0 1 with
       | 1 when Bytes.get buf 0 = 'K' -> crash_ordered := true
       | _ | (exception Unix.Unix_error _) -> stop := true
     in
     H.start host;
     H.fault_step host;
     ran := true;
     drain_self ();
     end_iteration ();
     let hard_deadline = cfg.timeout_ms +. 5000. in
     while (not !stop) && not !crashing do
       (* Wall-clock crashes land at loop-iteration boundaries, never
          inside a handler, so the WAL file on disk is always an
          end-of-iteration snapshot and every frame of the iteration has
          been released. *)
       if !crash_ordered then crashing := true
       else if now_ms t0 > hard_deadline then stop := true
       else begin
         (let timeout =
            let d = (next_deadline () -. now_ms t0) /. 1000. in
            Float.max 0. (Float.min d max_select_s)
          in
          let fds = listener :: ctl_fd :: List.map fst !conns in
          match Unix.select fds [] [] timeout with
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | exception Unix.Unix_error (EBADF, _, _) ->
              (* A forced teardown closed our sockets under us. *)
              stop := true
          | ready, _, _ ->
              List.iter
                (fun fd ->
                  if !crashing then ()
                  else if fd = listener then accept_conn ()
                  else if fd = ctl_fd then handle_ctl ()
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
  (* A recovery order names its node in one byte of the report pipe. *)
  if cfg.n > 256 then invalid_arg "Tcp.run: n > 256";
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

let wal_file cfg id =
  Option.map
    (fun d -> Filename.concat d (Printf.sprintf "node-%d.wal" id))
    cfg.wal_dir

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

let merge_incarnations ~n ~id ~restarts rs =
  match rs with
  | [] -> { (empty_node_result ~n id) with restarts }
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
        restarts;
        malformed_by_peer = sum_arr (fun r -> r.malformed_by_peer);
        dropped_by_peer = sum_arr (fun r -> r.dropped_by_peer);
      }

(* The coordinator's view of one validator across its incarnations.  Every
   incarnation, thread or child process, reports on its own pipe: 'D' =
   target reached, 'O' node = the observer ordered the logical recovery of
   [node], 'C' = crashing, 'R' = stopped, result handed back; EOF = the
   incarnation is over.  The coordinator orders 'K' (crash) and 'S' (stop)
   on a control pipe that the executor selects on. *)
type member = {
  node : int;
  mutable incarnation : int;
  mutable rfd : Unix.file_descr;  (* report pipe, read end *)
  mutable cwfd : Unix.file_descr;  (* control pipe, write end *)
  mutable alive : bool;  (* the report pipe is open *)
  mutable got_r : bool;
  mutable target_met : bool;
  mutable crash_expected : bool;
  mutable down : bool;  (* crashed, waiting for its recovery order *)
  mutable dead : bool;  (* over without a crash, never restarted *)
  mutable recover_pending : bool;
  mutable reap : unit -> unit;  (* wait for an incarnation that is over *)
  mutable force : unit -> unit;  (* bring a wedged incarnation down *)
  mutable results : node_result list;  (* handed back, newest first *)
  mutable wal_blob : string option;
      (* threads: the last crashed incarnation's WAL snapshot *)
}

(* How long stopped incarnations may take to report before they are forced
   down (and the run counts as [Timed_out]). *)
let stop_grace_ms = 2000.

(* Threads mode: the incarnation runs on a thread of this process, hands
   its result (and after a crash its WAL snapshot) back in memory, and is
   forced down by its teardown closure. *)
let start_thread run_node m ~listener ~report ~ctl_fd ~inherited:_ =
  let id = m.node and incarnation = m.incarnation and wal_blob = m.wal_blob in
  m.force <- ignore;
  let body () =
    (match
       run_node ~id ~incarnation ~listener ~wal_blob ~report ~ctl_fd
         ~register_teardown:(fun f -> m.force <- f)
     with
    | r, reason -> (
        m.results <- r :: m.results;
        match reason with
        | Crashed blob ->
            m.wal_blob <- Some blob;
            post report "C"
        | Stopped -> post report "R")
    | exception e ->
        Log.err (fun f ->
            f "node %d: incarnation %d failed: %s" id incarnation
              (Printexc.to_string e)));
    close_quiet report;
    close_quiet ctl_fd
  in
  let th = Thread.create body () in
  m.reap <- (fun () -> Thread.join th)

(* Process mode: the incarnation is a forked child, which closes the
   coordinator's [inherited] descriptors.  A respawned child binds its own
   port and rebuilds from its WAL file.  A crash really kills the child, so
   only a stopped incarnation's result comes back, as a blob after 'R'.
   It is forced down by TERM, then KILL. *)
let start_child cfg run_node m ~listener ~report ~ctl_fd ~inherited =
  let id = m.node and incarnation = m.incarnation in
  match Unix.fork () with
  | 0 ->
      List.iter close_quiet inherited;
      (try
         let wal_blob =
           match wal_file cfg id with
           | Some path when incarnation > 0 && Sys.file_exists path -> (
               try Some (read_file path) with Sys_error _ -> None)
           | _ -> None
         in
         match
           run_node ~id ~incarnation ~listener ~wal_blob ~report ~ctl_fd
             ~register_teardown:ignore
         with
         | _, Crashed _ ->
             (* Volatile state and the pending result die with the
                process; only the WAL file survives. *)
             post report "C";
             Unix.kill (Unix.getpid ()) Sys.sigkill
         | r, Stopped -> post report ("R" ^ Wire.frame (encode_node_result r))
       with _ -> ());
      Unix._exit 0
  | pid ->
      close_quiet report;
      close_quiet ctl_fd;
      Option.iter close_quiet listener;
      m.reap <-
        (fun () ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      m.force <-
        (fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          let until = Unix.gettimeofday () +. 0.5 in
          let rec exited () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
                Unix.gettimeofday () < until
                && (Thread.delay 0.02;
                    exited ())
            | _ | (exception Unix.Unix_error _) -> true
          in
          if not (exited ()) then
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())

let collect_blob m =
  match Wire.read_frame m.rfd with
  | Ok body -> (
      match decode_node_result body with
      | Ok r -> m.results <- [ r ]
      | Error _ -> ())
  | Error _ | (exception Unix.Unix_error _) -> ()

(* One select loop drives the cluster in either mode: it fires the wall
   fault timeline, follows every incarnation's reports, restarts crashed
   nodes on their recovery orders, and ends the run once every node has
   reached the target (or is over) or the deadline passes. *)
let coordinate cfg ~t0 ~listeners ~start ~collect =
  let members =
    Array.init cfg.n (fun node ->
        {
          node;
          incarnation = 0;
          rfd = Unix.stdin;
          cwfd = Unix.stdin;
          alive = false;
          got_r = false;
          target_met = false;
          crash_expected = false;
          down = false;
          dead = false;
          recover_pending = false;
          reap = ignore;
          force = ignore;
          results = [];
          wal_blob = None;
        })
  in
  let fault_log = ref [] in
  let log_fault node fe_kind =
    fault_log := { fe_time_ms = now_ms t0; fe_node = node; fe_kind } :: !fault_log
  in
  let stopping = ref false in
  let spawn m =
    let rfd, report = Unix.pipe () in
    let ctl_fd, cwfd = Unix.pipe () in
    m.rfd <- rfd;
    m.cwfd <- cwfd;
    m.alive <- true;
    m.got_r <- false;
    m.target_met <- false;
    m.crash_expected <- false;
    m.down <- false;
    (* The initial listeners are bound here; a respawn binds its own. *)
    let listener = listeners.(m.node) in
    listeners.(m.node) <- None;
    let inherited =
      Array.fold_left
        (fun acc m' -> if m'.alive then m'.rfd :: m'.cwfd :: acc else acc)
        (List.filter_map Fun.id (Array.to_list listeners))
        members
    in
    start m ~listener ~report ~ctl_fd ~inherited
  in
  let respawn m =
    m.incarnation <- m.incarnation + 1;
    m.recover_pending <- false;
    log_fault m.node Bft_obs.Trace.Recover;
    spawn m
  in
  let order_recover m =
    if !stopping then ()
    else if m.down then respawn m
    else if not m.dead then m.recover_pending <- true
  in
  let finish m =
    m.alive <- false;
    close_quiet m.rfd;
    close_quiet m.cwfd;
    m.reap ();
    if m.crash_expected && not m.got_r then begin
      m.down <- true;
      log_fault m.node Bft_obs.Trace.Crash;
      if m.recover_pending then order_recover m
    end
    else m.dead <- true
  in
  let read_report m =
    let buf = Bytes.create 1 in
    let byte () =
      match Unix.read m.rfd buf 0 1 with
      | 1 -> Some (Bytes.get buf 0)
      | _ | (exception Unix.Unix_error _) -> None
    in
    match byte () with
    | None -> finish m
    | Some 'D' -> m.target_met <- true
    | Some 'C' -> m.crash_expected <- true
    | Some 'R' ->
        m.got_r <- true;
        collect m
    | Some 'O' -> (
        match byte () with
        | Some c -> if Char.code c < cfg.n then order_recover members.(Char.code c)
        | None -> finish m)
    | Some _ -> ()
  in
  let timeline = ref (wall_timeline cfg) in
  let fire_due_wall () =
    let now = now_ms t0 in
    let rec go = function
      | (at, ev) :: rest when at <= now ->
          (match ev with
          | Fault_plane.Wall_crash node ->
              let m = members.(node) in
              if m.alive && not m.crash_expected then begin
                m.crash_expected <- true;
                post m.cwfd "K"
              end
          | Fault_plane.Wall_recover node -> order_recover members.(node)
          | Fault_plane.Wall_edge f -> log_fault (-1) f);
          go rest
      | rest -> rest
    in
    timeline := go !timeline
  in
  (* Follow reports until [until_ms] or the next wall-timeline instant. *)
  let poll ~until_ms =
    let until_ms =
      match !timeline with
      | (at, _) :: _ -> Float.min at until_ms
      | [] -> until_ms
    in
    let fds =
      Array.fold_left
        (fun acc m -> if m.alive then m.rfd :: acc else acc)
        [] members
    in
    match
      Unix.select fds [] []
        (Float.max 0. ((until_ms -. now_ms t0) /. 1000.))
    with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            Option.iter read_report
              (Array.find_opt (fun m -> m.alive && m.rfd = fd) members))
          ready
  in
  Array.iter spawn members;
  let settled m = m.target_met || m.got_r || m.dead in
  while
    Array.exists (fun m -> m.down || not (settled m)) members
    && now_ms t0 < cfg.timeout_ms
  do
    fire_due_wall ();
    poll ~until_ms:cfg.timeout_ms
  done;
  let reached = Array.for_all (fun m -> m.target_met) members in
  stopping := true;
  timeline := [];
  Array.iter (fun m -> if m.alive then post m.cwfd "S") members;
  let grace = now_ms t0 +. stop_grace_ms in
  while Array.exists (fun m -> m.alive) members && now_ms t0 < grace do
    poll ~until_ms:grace
  done;
  let forced = Array.exists (fun m -> m.alive) members in
  Array.iter
    (fun m ->
      if m.alive then begin
        m.force ();
        m.reap ();
        m.alive <- false;
        close_quiet m.rfd;
        close_quiet m.cwfd
      end)
    members;
  {
    nodes =
      Array.map
        (fun m ->
          merge_incarnations ~n:cfg.n ~id:m.node ~restarts:m.incarnation
            (List.rev m.results))
        members;
    wall_ms = now_ms t0;
    reached_target = reached;
    outcome = (if forced then Timed_out else Completed);
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
        Option.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          (wal_file cfg i)
      done);
  let bound =
    Array.init cfg.n (fun i ->
        make_listener
          ~port:(match cfg.base_port with None -> 0 | Some b -> b + i))
  in
  let ports = Array.map snd bound in
  let t0 = Unix.gettimeofday () in
  let run_node ~id ~incarnation ~listener ~wal_blob ~report ~ctl_fd
      ~register_teardown =
    let listener =
      match listener with
      | Some fd -> fd
      | None -> fst (make_listener ~port:ports.(id))
    in
    node_main
      (module P : Protocol_intf.S with type msg = m)
      cfg ~id ~incarnation ~t0 ~listener ~ports ~plane ~wal_blob
      ~wal_file:(wal_file cfg id) ~report ~ctl_fd ~register_teardown
  in
  let start, collect =
    match cfg.mode with
    | Threads -> (start_thread run_node, ignore)
    | Processes -> (start_child cfg run_node, collect_blob)
  in
  coordinate cfg ~t0
    ~listeners:(Array.map (fun (fd, _) -> Some fd) bound)
    ~start ~collect

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
