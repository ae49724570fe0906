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

type commit = Executor.commit = {
  c_block : Block.t;
  c_height : int;
  c_time_ms : float;
}

type proposal = Executor.proposal = {
  p_block : Block.t;
  p_height : int;
  p_time_ms : float;
}

type node_result = Executor.node_result = {
  id : int;
  commits : commit list;
  proposals : proposal list;
  trace_events : Bft_obs.Trace.event list;
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

(* --- transport-level hello frame (tag 0x00) ------------------------------- *)

let hello_tag = 0x00

let write_hello w (id, n, protocol) =
  W.uvar w id;
  W.uvar w n;
  W.bytes w protocol

let encode_hello ~id ~n ~protocol =
  Wire.encode_body ~tag:hello_tag write_hello (id, n, protocol)

let decode_hello body =
  Wire.decode_body body (fun tag r ->
      if tag <> hello_tag then Wire.bad_tag tag;
      let id = R.uvar r in
      let n = R.uvar r in
      let protocol = R.bytes r in
      (id, n, protocol))

(* --- one validator incarnation -------------------------------------------- *)

let now_ms t0 = (Unix.gettimeofday () -. t0) *. 1000.
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A short message on a report or control pipe.  A reader that is gone is
   no reason to raise. *)
let post fd s = try Wire.write_all fd s with Unix.Unix_error _ -> ()

(* Write [s] to [tmp] through a bare fd (no channel buffer to allocate),
   then rename it over [path]: a reader sees the old snapshot or the new
   one, never a torn write. *)
let write_file_atomic ~tmp ~path s =
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  (match Wire.write_all fd s with
  | () -> close_quiet fd
  | exception e ->
      close_quiet fd;
      raise e);
  Unix.rename tmp path

(* Every validator rebuilds the client stream from [cfg.clients] itself
   (see [config.clients]). *)
let policy cfg plane =
  {
    Node_host.n = cfg.n;
    delta = cfg.delta_ms;
    leader_of = cfg.leader_of;
    payload_bytes = cfg.payload_bytes;
    ingest =
      Option.map
        (fun spec ->
          Bft_mempool.Ingest.create ~spec ~n:cfg.n ~view_ms:cfg.delta_ms ())
        cfg.clients;
    trace = (if cfg.trace then Some (Bft_obs.Trace.create ()) else None);
    faults = Fault_plane.logical plane;
  }

(* An accepted connection: the peer its hello named ([-1] until the hello
   is in), its input buffer and the delivery its frames go to. *)
type conn = {
  mutable src : int;
  inbox : Wire.Frame_reader.t;
  deliver : int -> Bytes.t -> int -> int -> unit;
}

exception Bad_hello

(* The [select] shell around one incarnation's {!Executor}: accepts, the
   control pipe, frame reads, blocked writes, teardown.  Control orders
   and writable sockets wake [select] at once, else the next timer (at
   worst the hard deadline) or paced frame does.  Returns what
   {!Executor.Make.finish} does. *)
let node_main (type m) (module P : Protocol_intf.S with type msg = m)
    (cfg : config) ~id ~incarnation ~t0 ~listener ~ports ~plane ~wal_blob
    ~wal_file ~report ~ctl_fd ~register_teardown =
  let module E = Executor.Make (P) in
  let now () = now_ms t0 in
  let hello = encode_hello ~id ~n:cfg.n ~protocol:cfg.protocol_name in
  (* The length field of the longest valid hello: a connection that has
     not sent one cannot grow its input buffer past it. *)
  let hello_limit =
    Wire.frame_size ~payload:0
      (String.length
         (encode_hello ~id:(cfg.n - 1) ~n:cfg.n ~protocol:cfg.protocol_name))
    - 4
  in
  let backoff_cap_ms =
    (* Under the logical clock the whole run is paced by [link_delay_ms];
       a recovered peer must be redialed well within its catch-up slack,
       so the backoff cap shrinks with the pacing. *)
    match Fault_plane.clock plane with
    | Fault_plane.Views -> Float.max 25. (cfg.link_delay_ms *. 2.)
    | Fault_plane.Wall_ms -> 500.
  in
  (* [now_ms t0] written in place: a float returned by a call is boxed. *)
  let now_into slot i = slot.(i) <- (Unix.gettimeofday () -. t0) *. 1000. in
  let cm =
    Conn_manager.create ~backoff_cap_ms ~n:cfg.n ~id ~ports ~hello ~now_into
      ~plane ()
  in
  let persist =
    Option.map
      (fun path ->
        let tmp = path ^ ".tmp" in
        fun s ->
          try write_file_atomic ~tmp ~path s
          with Unix.Unix_error _ ->
            Log.err (fun m -> m "node %d: cannot persist WAL" id))
      wal_file
  in
  let ex =
    E.create (policy cfg plane) ~id ~incarnation ~wal:wal_blob
      ~target_blocks:cfg.target_blocks ~now_into
      { send = Conn_manager.send cm;
        release = (fun () -> Conn_manager.release cm) }
      ~persist
      ~on_target:(fun () -> post report "D")
      ~on_recover:(fun node ->
        post report (Printf.sprintf "O%c" (Char.chr node)))
  in
  (* Accepted connections, each with the peer its hello named, and the
     [select] watch list, rebuilt only when a connection comes or goes. *)
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create cfg.n in
  let watch = ref [ listener; ctl_fd ] in
  let rewatch () =
    watch := listener :: ctl_fd :: Hashtbl.fold (fun fd _ l -> fd :: l) conns []
  in
  let close_conn fd =
    Hashtbl.remove conns fd;
    rewatch ();
    close_quiet fd
  in
  let close_inbound () =
    Hashtbl.iter (fun fd _ -> close_quiet fd) conns;
    close_quiet listener
  in
  (* A wedged incarnation's next [select] fails on the closed sockets. *)
  register_teardown close_inbound;
  (* A connection's first frame is its hello, naming the peer of every
     later one; a connector that sends none just idles in the watch list. *)
  let on_frame c payload buf off len =
    if c.src >= 0 then E.receive ex ~src:c.src ~payload buf off len
    else
      match decode_hello (Bytes.sub_string buf off len) with
      | Ok (src, n', proto)
        when payload = 0 && src >= 0 && src < cfg.n && src <> id && n' = cfg.n
             && String.equal proto cfg.protocol_name ->
          c.src <- src;
          Wire.Frame_reader.set_limit c.inbox Wire.max_frame_len
      | Ok _ | Error _ -> raise Bad_hello
  in
  let accept_conn () =
    match Unix.accept listener with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let inbox = Wire.Frame_reader.create () in
        Wire.Frame_reader.set_limit inbox hello_limit;
        let rec c =
          { src = -1; inbox; deliver = (fun p b o l -> on_frame c p b o l) }
        in
        Hashtbl.replace conns fd c;
        rewatch ()
  in
  let handle_ctl () =
    let buf = Bytes.create 1 in
    match Unix.read ctl_fd buf 0 1 with
    | 1 when Bytes.get buf 0 = 'K' -> E.crash ex
    | _ | (exception Unix.Unix_error _) -> E.stop ex
  in
  (* One read, then every complete frame it buffered. *)
  let read_from fd c =
    match Wire.Frame_reader.read c.inbox fd c.deliver with
    | `Open -> ()
    | `Closed -> close_conn fd
    | `Frame_error e ->
        if c.src >= 0 then
          E.malformed ex ~src:c.src ("framing error: " ^ Wire.error_to_string e);
        close_conn fd
    | exception (Unix.Unix_error _ | Bad_hello) -> close_conn fd
  in
  let on_ready fd =
    if fd = listener then accept_conn ()
    else if fd = ctl_fd then handle_ctl ()
    else
      match Hashtbl.find conns fd with
      | c -> read_from fd c
      | exception Not_found -> ()
  in
  (try
     E.start ex;
     let (_ : unit -> unit) =
       E.set_timer ex (cfg.timeout_ms +. 5000. -. now ()) (fun () -> E.stop ex)
     in
     (* A crash order lands at once: the rest of the iteration runs no
        handler or timer, and [E.step] still persists and releases what
        ran before it, so the WAL file on disk is always an end-of-iteration
        snapshot. *)
     while E.running ex do
       let wait = Conn_manager.wait_s cm (E.wait_s ex) in
       (match Unix.select !watch (Conn_manager.blocked cm) [] wait with
       | exception Unix.Unix_error (EINTR, _, _) -> ()
       | exception Unix.Unix_error (EBADF, _, _) ->
           (* A forced teardown closed our sockets under us. *)
           E.stop ex
       | ready, _, _ -> List.iter on_ready ready);
       E.step ex
     done
   with exn ->
     Log.err (fun m ->
         m "node %d: executor died: %s" id (Printexc.to_string exn)));
  if E.crashed ex then
    (* The simulator treats every send a handler issued before the crash
       point as already on the wire.  The crashing iteration has persisted
       and released its frames; write them all, paced ones included,
       before dying so the socket run agrees. *)
    ignore (Conn_manager.drain cm);
  (* A crashed incarnation also closes its listener: frames sent while the
     node is down must be lost, not parked in an accept backlog for the
     next incarnation to read. *)
  close_inbound ();
  Conn_manager.close cm;
  E.finish ex (Conn_manager.stats cm)

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

(* With no incarnation result at all, every count is 0. *)
let merge_incarnations ~n ~id ~restarts rs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let sum_arr f =
    let acc = Array.make n 0 in
    List.iter
      (fun r ->
        Array.iteri (fun j v -> if j < n then acc.(j) <- acc.(j) + v) (f r))
      rs;
    acc
  in
  {
    id;
    commits = List.concat_map (fun r -> r.commits) rs;
    proposals = List.concat_map (fun r -> r.proposals) rs;
    trace_events = List.concat_map (fun r -> r.trace_events) rs;
    decode_errors = sum (fun r -> r.decode_errors);
    frames_received = sum (fun r -> r.frames_received);
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
    | r, crash_wal ->
        m.results <- r :: m.results;
        if Option.is_some crash_wal then m.wal_blob <- crash_wal;
        post report (if Option.is_some crash_wal then "C" else "R")
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
               try Some (In_channel.with_open_bin path In_channel.input_all)
               with Sys_error _ -> None)
           | _ -> None
         in
         match
           run_node ~id ~incarnation ~listener ~wal_blob ~report ~ctl_fd
             ~register_teardown:ignore
         with
         | _, Some _ ->
             (* Volatile state and the pending result die with the
                process; only the WAL file survives. *)
             post report "C";
             Unix.kill (Unix.getpid ()) Sys.sigkill
         | r, None -> post report ("R" ^ Wire.frame (Marshal.to_string r []))
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

(* The blob is [Marshal]led: both ends run the same executable, and the
   frame's length prefix keeps a torn write from reaching [from_string]. *)
let collect_blob m =
  match Wire.read_frame m.rfd with
  | Ok (_, body) -> m.results <- [ (Marshal.from_string body 0 : node_result) ]
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
      ~heal_bound_ms:(Bft_obs.Liveness.k *. cfg.delta_ms)
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

(* --- post-hoc replay ------------------------------------------------------- *)

type step = Fault of fault_event | Proposal of proposal | Commit of int * commit

let replay ?(fault = ignore) ?(commit = fun ~node:_ _ -> ()) result metrics =
  let module M = Bft_obs.Metrics in
  let time = function
    | Fault fe -> fe.fe_time_ms
    | Proposal p -> p.p_time_ms
    | Commit (_, c) -> c.c_time_ms
  in
  let rank = function Fault _ -> 0 | Proposal _ -> 1 | Commit _ -> 2 in
  (* The clock [metrics] reads: the current record's time, stored
     unboxed, so a record costs no closure and no boxed float. *)
  let clock = [| 0. |] in
  let now () = clock.(0) in
  (* A stable sort: ties of one rank keep node order, then record order. *)
  List.map (fun fe -> Fault fe) result.fault_events
  @ List.concat_map
      (fun nr ->
        List.map (fun p -> Proposal p) nr.proposals
        @ List.map (fun c -> Commit (nr.id, c)) nr.commits)
      (Array.to_list result.nodes)
  |> List.stable_sort (fun a b ->
         match Float.compare (time a) (time b) with
         | 0 -> Int.compare (rank a) (rank b)
         | c -> c)
  |> List.iter (function
       | Fault fe -> fault fe
       | Proposal p ->
           clock.(0) <- p.p_time_ms;
           M.on_propose metrics ~now p.p_block
       | Commit (node, c) ->
           commit ~node c;
           clock.(0) <- c.c_time_ms;
           M.on_commit metrics ~node ~now c.c_block)

let quorum_latencies result ~quorum =
  let module M = Bft_obs.Metrics in
  let n = Array.length result.nodes in
  if quorum <> M.latency_quorum ~n then
    invalid_arg "Tcp.quorum_latencies: quorum is not Metrics.latency_quorum";
  let m = M.create ~n () in
  replay result m;
  (M.finish m ~duration_ms:result.wall_ms).M.records
  |> List.filter_map (fun (r : M.record) ->
         Option.map
           (fun t -> (r.M.block.Block.height, t -. r.M.created_ms))
           r.M.quorum_commit_ms)
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
