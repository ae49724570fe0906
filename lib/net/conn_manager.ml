let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The first pause after a failed dial; it doubles up to the cap. *)
let backoff_base_ms = 10.

type stats = {
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
  dropped : int array;
  reconnects : int;
}

(* A frame waiting for its release time (send time + pacing/spike delay).
   Waiting on the head frame instead of reordering keeps per-link FIFO
   across the end of a delay-spike window, as a TCP stream would. *)
type paced = { at : float; dst : int; body : string }

type peer = {
  port : int;
  out : Wire.Frame_writer.t;
  mutable frames : int;  (* in [out], of [bytes] bytes, since it was empty *)
  mutable bytes : int;
  mutable fd : Unix.file_descr option;
  mutable up : bool;  (* the hello is written: the dial succeeded *)
  mutable next_try_ms : float;
  mutable backoff_ms : float;
  mutable ever_connected : bool;
}

type t = {
  id : int;
  hello : string;  (* framed *)
  now_ms : unit -> float;
  plane : Fault_plane.t;
  backoff_cap_ms : float;
  peers : peer array;
  paced : paced Queue.t;
  mutable unreleased : int;  (* [paced]'s tail sent since the last release *)
  jitter : Bft_sim.Rng.t;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable bytes_heal : int;
  dropped : int array;
  mutable reconnects : int;
}

let create ?(backoff_cap_ms = 500.) ~n ~id ~ports ~hello ~now_ms ~plane () =
  let peer port =
    {
      port;
      out = Wire.Frame_writer.create ();
      frames = 0;
      bytes = 0;
      fd = None;
      up = false;
      next_try_ms = 0.;
      backoff_ms = backoff_base_ms;
      ever_connected = false;
    }
  in
  {
    id;
    hello = Wire.frame hello;
    now_ms;
    plane;
    backoff_cap_ms;
    peers = Array.map peer ports;
    paced = Queue.create ();
    unreleased = 0;
    jitter = Bft_sim.Rng.create ((id * 2654435761) lxor 0x5ca1ab1e);
    messages_sent = 0;
    bytes_sent = 0;
    bytes_heal = 0;
    dropped = Array.make n 0;
    reconnects = 0;
  }

(* Bounded exponential backoff with jitter after a failed dial: a dead
   peer costs one failed [connect] per backoff period, and its frames are
   dropped meanwhile, the loss a down peer implies. *)
let back_off t p ~now =
  let factor = 0.5 +. Bft_sim.Rng.float t.jitter 0.5 in
  p.next_try_ms <- now +. (p.backoff_ms *. factor);
  p.backoff_ms <- Float.min t.backoff_cap_ms (p.backoff_ms *. 2.)

(* Whether [p] has a connection, dialed now unless it is in backoff.  The
   dial does not wait: a [connect] still in progress fails, if at all, at
   the first write. *)
let connected t p ~now =
  Option.is_some p.fd
  || now >= p.next_try_ms
     &&
     match
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       p.fd <- Some fd;
       p.up <- false;
       Unix.set_nonblock fd;
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p.port))
     with
     | () | (exception Unix.Unix_error (EINPROGRESS, _, _)) -> true
     | exception Unix.Unix_error _ ->
         Option.iter close_quiet p.fd;
         p.fd <- None;
         back_off t p ~now;
         false

(* Commit every released paced frame that is due to its peer's output, or
   drop it when the peer has no connection.  The slack absorbs [select]
   truncating its timeout to microseconds. *)
let rec commit_due t ~now =
  if
    Queue.length t.paced > t.unreleased
    && (Queue.peek t.paced).at <= now +. 0.01
  then begin
    let { dst; body; _ } = Queue.pop t.paced in
    let p = t.peers.(dst) in
    if connected t p ~now then begin
      Wire.Frame_writer.add p.out body;
      p.frames <- p.frames + 1;
      p.bytes <- p.bytes + 4 + String.length body
    end
    else t.dropped.(dst) <- t.dropped.(dst) + 1;
    commit_due t ~now
  end

let send t ~dst ~src_view body =
  let now = t.now_ms () in
  match
    Fault_plane.verdict t.plane ~src:t.id ~dst ~now_ms:now ~src_view
  with
  | `Drop -> t.dropped.(dst) <- t.dropped.(dst) + 1
  | `Pass ->
      let at = now +. Fault_plane.delay_ms t.plane ~src:t.id ~now_ms:now in
      Queue.push { at; dst; body } t.paced;
      t.unreleased <- t.unreleased + 1

(* Write [p]'s hello unless the dial has (a fresh socket's buffer takes it
   whole, so only a [connect] in progress defers it), then its output.
   Once [out] is empty its frames count as sent; a failed connection loses
   them all.  A peer gone mid-stream (a crashed validator) may be redialed
   at once, one that refused the dial only after its backoff. *)
let write t dst p ~now =
  match p.fd with
  | Some fd when (not p.up) || p.frames > 0 -> (
      match
        if not p.up then begin
          Wire.write_all fd t.hello;
          p.up <- true;
          if p.ever_connected then t.reconnects <- t.reconnects + 1;
          p.ever_connected <- true;
          p.backoff_ms <- backoff_base_ms
        end;
        Wire.Frame_writer.write p.out fd
      with
      | true ->
          t.messages_sent <- t.messages_sent + p.frames;
          t.bytes_sent <- t.bytes_sent + p.bytes;
          if Fault_plane.in_heal_window t.plane ~now_ms:now then
            t.bytes_heal <- t.bytes_heal + p.bytes;
          p.frames <- 0;
          p.bytes <- 0
      | false | (exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)) -> ()
      | exception Unix.Unix_error _ ->
          close_quiet fd;
          p.fd <- None;
          if not p.up then back_off t p ~now;
          Wire.Frame_writer.clear p.out;
          t.dropped.(dst) <- t.dropped.(dst) + p.frames;
          p.frames <- 0;
          p.bytes <- 0)
  | _ -> ()

let release t =
  let now = t.now_ms () in
  t.unreleased <- 0;
  commit_due t ~now;
  for dst = 0 to Array.length t.peers - 1 do
    write t dst t.peers.(dst) ~now
  done

let blocked t =
  Array.fold_left
    (fun acc p ->
      match p.fd with
      | Some fd when (not p.up) || p.frames > 0 -> fd :: acc
      | _ -> acc)
    [] t.peers

let wait_s t bound =
  if Queue.length t.paced <= t.unreleased then bound
  else
    let due = (Queue.peek t.paced).at in
    let w = Float.max 0. ((due -. t.now_ms ()) /. 1000.) in
    if bound < 0. then w else Float.min w bound

let drain t =
  let deadline =
    Queue.fold (fun d f -> Float.max d f.at) (t.now_ms ()) t.paced +. 250.
  in
  let rec go () =
    release t;
    let left = (deadline -. t.now_ms ()) /. 1000. in
    (Queue.is_empty t.paced && blocked t = [])
    || left > 0.
       && begin
         (try ignore (Unix.select [] (blocked t) [] (wait_s t left))
          with Unix.Unix_error (EINTR, _, _) -> ());
         go ()
       end
  in
  go ()

let stats t =
  {
    messages_sent = t.messages_sent;
    bytes_sent = t.bytes_sent;
    bytes_heal = t.bytes_heal;
    dropped = Array.copy t.dropped;
    reconnects = t.reconnects;
  }

let close t =
  Array.iter
    (fun p ->
      Option.iter close_quiet p.fd;
      p.fd <- None)
    t.peers
