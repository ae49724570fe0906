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

(* Frames waiting for their release time (send time + pacing/spike delay)
   form one FIFO: a ring of parallel arrays, [len] frames from [head], the
   last [unreleased] of them sent since the last release.  Waiting on the
   head frame instead of reordering keeps per-link FIFO across the end of
   a delay-spike window, as a TCP stream would.  The ring grows by
   doubling and is never shrunk, so a send allocates nothing once it has
   reached the run's backlog. *)
type t = {
  id : int;
  hello : string;  (* framed *)
  now_into : float array -> int -> unit;
  (* [clock.(0)]: the time of the current call; [clock.(1)]: a frame's
     release time, while it is computed. *)
  clock : float array;
  plane : Fault_plane.t;
  backoff_cap_ms : float;
  peers : peer array;
  mutable at : float array;
  mutable dsts : int array;
  mutable bodies : string array;
  mutable payloads : int array;
  mutable head : int;
  mutable len : int;
  mutable unreleased : int;
  jitter : Bft_sim.Rng.t;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable bytes_heal : int;
  dropped : int array;
  mutable reconnects : int;
}

let create ?(backoff_cap_ms = 500.) ~n ~id ~ports ~hello ~now_into ~plane () =
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
    now_into;
    clock = [| 0.; 0. |];
    plane;
    backoff_cap_ms;
    peers = Array.map peer ports;
    at = Array.make 64 0.;
    dsts = Array.make 64 0;
    bodies = Array.make 64 "";
    payloads = Array.make 64 0;
    head = 0;
    len = 0;
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
let back_off t p =
  let factor = 0.5 +. Bft_sim.Rng.float t.jitter 0.5 in
  p.next_try_ms <- t.clock.(0) +. (p.backoff_ms *. factor);
  p.backoff_ms <- Float.min t.backoff_cap_ms (p.backoff_ms *. 2.)

(* Whether [p] has a connection, dialed now unless it is in backoff.  The
   dial does not wait: a [connect] still in progress fails, if at all, at
   the first write. *)
let connected t p =
  Option.is_some p.fd
  || t.clock.(0) >= p.next_try_ms
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
         back_off t p;
         false

let capacity t = Array.length t.at

(* The ring's [i]th frame from the head. *)
let slot t i = (t.head + i) mod capacity t

(* Double the ring, its frames moved to the front in FIFO order. *)
let grow t =
  let cap = capacity t in
  let move a fill =
    let b = Array.make (2 * cap) fill in
    for i = 0 to t.len - 1 do
      b.(i) <- a.((t.head + i) mod cap)
    done;
    b
  in
  t.at <- move t.at 0.;
  t.dsts <- move t.dsts 0;
  t.bodies <- move t.bodies "";
  t.payloads <- move t.payloads 0;
  t.head <- 0

(* Commit every released paced frame that is due to its peer's output, or
   drop it when the peer has no connection.  The slack absorbs [select]
   truncating its timeout to microseconds. *)
let rec commit_due t =
  if t.len > t.unreleased && t.at.(t.head) <= t.clock.(0) +. 0.01 then begin
    let h = t.head in
    let dst = t.dsts.(h) and body = t.bodies.(h) and payload = t.payloads.(h) in
    t.bodies.(h) <- "";
    t.head <- slot t 1;
    t.len <- t.len - 1;
    let p = t.peers.(dst) in
    if connected t p then begin
      Wire.Frame_writer.add p.out ~payload body;
      p.frames <- p.frames + 1;
      p.bytes <- p.bytes + Wire.frame_size ~payload (String.length body)
    end
    else t.dropped.(dst) <- t.dropped.(dst) + 1;
    commit_due t
  end

let send t ~dst ~src_view ~payload body =
  t.now_into t.clock 0;
  match Fault_plane.verdict t.plane ~src:t.id ~dst ~src_view t.clock 0 with
  | `Drop -> t.dropped.(dst) <- t.dropped.(dst) + 1
  | `Pass ->
      t.clock.(1) <- t.clock.(0);
      Fault_plane.add_delay t.plane t.clock ~now:0 1;
      if t.len = capacity t then grow t;
      let i = slot t t.len in
      t.at.(i) <- t.clock.(1);
      t.dsts.(i) <- dst;
      t.bodies.(i) <- body;
      t.payloads.(i) <- payload;
      t.len <- t.len + 1;
      t.unreleased <- t.unreleased + 1

(* Write [p]'s hello unless the dial has (a fresh socket's buffer takes it
   whole, so only a [connect] in progress defers it), then its output.
   Once [out] is empty its frames count as sent; a failed connection loses
   them all.  A peer gone mid-stream (a crashed validator) may be redialed
   at once, one that refused the dial only after its backoff. *)
let write t dst p =
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
          if Fault_plane.in_heal_window t.plane t.clock 0 then
            t.bytes_heal <- t.bytes_heal + p.bytes;
          p.frames <- 0;
          p.bytes <- 0
      | false | (exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)) -> ()
      | exception Unix.Unix_error _ ->
          close_quiet fd;
          p.fd <- None;
          if not p.up then back_off t p;
          Wire.Frame_writer.clear p.out;
          t.dropped.(dst) <- t.dropped.(dst) + p.frames;
          p.frames <- 0;
          p.bytes <- 0)
  | _ -> ()

let release t =
  t.now_into t.clock 0;
  t.unreleased <- 0;
  commit_due t;
  for dst = 0 to Array.length t.peers - 1 do
    write t dst t.peers.(dst)
  done

let blocked t =
  Array.fold_left
    (fun acc p ->
      match p.fd with
      | Some fd when (not p.up) || p.frames > 0 -> fd :: acc
      | _ -> acc)
    [] t.peers

let wait_s t bound =
  if t.len <= t.unreleased then bound
  else begin
    t.now_into t.clock 0;
    let w = Float.max 0. ((t.at.(t.head) -. t.clock.(0)) /. 1000.) in
    if bound < 0. then w else Float.min w bound
  end

let drain t =
  t.now_into t.clock 0;
  let deadline = ref t.clock.(0) in
  for i = 0 to t.len - 1 do
    deadline := Float.max !deadline t.at.(slot t i)
  done;
  let deadline = !deadline +. 250. in
  let rec go () =
    release t;
    let left = (deadline -. t.clock.(0)) /. 1000. in
    (t.len = 0 && blocked t = [])
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
