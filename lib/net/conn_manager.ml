let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

type stats = {
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
  dropped : int array;
  connect_attempts : int;
  reconnects : int;
}

(* A frame waiting for its release time (send time + pacing/spike
   delay).  Releases are monotone in send order except across the end
   of a delay-spike window; waiting on the head frame (instead of
   reordering) keeps per-link FIFO, which is what a TCP stream would do
   anyway. *)
type item = { release : float; dst : int; body : string }

type peer = {
  mutable fd : Unix.file_descr option;
  mutable next_try_ms : float;
  mutable backoff_ms : float;
  mutable ever_connected : bool;
}

type t = {
  id : int;
  ports : int array;
  hello : string;
  now_ms : unit -> float;
  plane : Fault_plane.t;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  held : item Queue.t;
      (* Frames sent since the last [release]; executor-only, unlocked. *)
  queue : item Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  mutable quit : bool;
  mutable inflight : bool;
  peers : peer array;
  jitter : Bft_sim.Rng.t;
  (* Counters are plain mutable ints: the executor and the sender both
     touch [dropped], but a lost increment on a diagnostic counter is
     preferable to taking the queue lock around every socket write. *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable bytes_heal : int;
  dropped : int array;
  mutable connect_attempts : int;
  mutable reconnects : int;
  mutable thread : Thread.t option;
  out : Wire.Frame_writer.t;  (* sender thread only *)
}

let dial t dst =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      try
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, t.ports.(dst)));
        Wire.Frame_writer.write t.out fd t.hello;
        Some fd
      with Unix.Unix_error _ ->
        close_quiet fd;
        None)

let write_item t { dst; body; _ } =
  let now = t.now_ms () in
  let p = t.peers.(dst) in
  let fd_opt =
    match p.fd with
    | Some _ as s -> s
    | None ->
        if now < p.next_try_ms then None
        else begin
          t.connect_attempts <- t.connect_attempts + 1;
          match dial t dst with
          | Some fd ->
              if p.ever_connected then t.reconnects <- t.reconnects + 1;
              p.ever_connected <- true;
              p.backoff_ms <- t.backoff_base_ms;
              p.fd <- Some fd;
              Some fd
          | None ->
              (* Bounded exponential backoff with jitter: a dead peer
                 costs one failed [connect] per backoff period instead of
                 a blocking retry loop that starves every other link. *)
              let factor = 0.5 +. Bft_sim.Rng.float t.jitter 0.5 in
              p.next_try_ms <- now +. (p.backoff_ms *. factor);
              p.backoff_ms <-
                Float.min t.backoff_cap_ms (p.backoff_ms *. 2.);
              None
        end
  in
  match fd_opt with
  | None -> t.dropped.(dst) <- t.dropped.(dst) + 1
  | Some fd -> (
      try
        Wire.Frame_writer.write t.out fd body;
        let bytes = 4 + String.length body in
        t.messages_sent <- t.messages_sent + 1;
        t.bytes_sent <- t.bytes_sent + bytes;
        if Fault_plane.in_heal_window t.plane ~now_ms:now then
          t.bytes_heal <- t.bytes_heal + bytes
      with Unix.Unix_error _ ->
        (* Peer went away mid-stream (crashed validator): tear the
           connection down and allow an immediate redial for the next
           frame; backoff only builds up across failed dials. *)
        close_quiet fd;
        p.fd <- None;
        p.next_try_ms <- now;
        p.backoff_ms <- t.backoff_base_ms;
        t.dropped.(dst) <- t.dropped.(dst) + 1)

let rec sender_loop t =
  Mutex.lock t.qm;
  while Queue.is_empty t.queue && not t.quit do
    Condition.wait t.qc t.qm
  done;
  if t.quit then begin
    (* Terminal: anything still queued is best-effort traffic to peers
       that are shutting down too. *)
    Queue.clear t.queue;
    Mutex.unlock t.qm;
    Array.iter
      (fun p ->
        Option.iter close_quiet p.fd;
        p.fd <- None)
      t.peers
  end
  else begin
    let head = Queue.peek t.queue in
    let now = t.now_ms () in
    if head.release > now +. 0.01 then begin
      Mutex.unlock t.qm;
      (* OCaml's [Condition] has no timed wait; poll in short slices so
         both release times and [quit] are honoured promptly. *)
      Thread.delay (Float.min ((head.release -. now) /. 1000.) 0.02);
      sender_loop t
    end
    else begin
      let item = Queue.pop t.queue in
      t.inflight <- true;
      Mutex.unlock t.qm;
      write_item t item;
      Mutex.lock t.qm;
      t.inflight <- false;
      Mutex.unlock t.qm;
      sender_loop t
    end
  end

let create ?(backoff_base_ms = 10.) ?(backoff_cap_ms = 500.) ~n ~id ~ports
    ~hello ~now_ms ~plane () =
  let t =
    {
      id;
      ports;
      hello;
      now_ms;
      plane;
      backoff_base_ms;
      backoff_cap_ms;
      held = Queue.create ();
      queue = Queue.create ();
      qm = Mutex.create ();
      qc = Condition.create ();
      quit = false;
      inflight = false;
      peers =
        Array.init n (fun _ ->
            {
              fd = None;
              next_try_ms = 0.;
              backoff_ms = backoff_base_ms;
              ever_connected = false;
            });
      jitter = Bft_sim.Rng.create ((id * 2654435761) lxor 0x5ca1ab1e);
      messages_sent = 0;
      bytes_sent = 0;
      bytes_heal = 0;
      dropped = Array.make n 0;
      connect_attempts = 0;
      reconnects = 0;
      thread = None;
      out = Wire.Frame_writer.create ();
    }
  in
  t.thread <- Some (Thread.create sender_loop t);
  t

let send t ~dst ~src_view body =
  let now = t.now_ms () in
  match
    Fault_plane.verdict t.plane ~src:t.id ~dst ~now_ms:now ~src_view
  with
  | `Drop -> t.dropped.(dst) <- t.dropped.(dst) + 1
  | `Pass ->
      let release = now +. Fault_plane.delay_ms t.plane ~now_ms:now in
      Queue.push { release; dst; body } t.held

let release t =
  if not (Queue.is_empty t.held) then begin
    Mutex.lock t.qm;
    if t.quit then Queue.clear t.held
    else begin
      Queue.transfer t.held t.queue;
      Condition.signal t.qc
    end;
    Mutex.unlock t.qm
  end

let flush t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    Mutex.lock t.qm;
    let drained = Queue.is_empty t.queue && not t.inflight in
    Mutex.unlock t.qm;
    if drained then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.002;
      wait ()
    end
  in
  wait ()

let stats t =
  {
    messages_sent = t.messages_sent;
    bytes_sent = t.bytes_sent;
    bytes_heal = t.bytes_heal;
    dropped = Array.copy t.dropped;
    connect_attempts = t.connect_attempts;
    reconnects = t.reconnects;
  }

let shutdown t =
  Mutex.lock t.qm;
  t.quit <- true;
  Condition.signal t.qc;
  Mutex.unlock t.qm;
  (match t.thread with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  t.thread <- None

let force_close t =
  Mutex.lock t.qm;
  t.quit <- true;
  Condition.signal t.qc;
  Mutex.unlock t.qm;
  Array.iter (fun p -> Option.iter close_quiet p.fd) t.peers
