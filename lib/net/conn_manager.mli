(** Outbound connection manager: one per validator incarnation.

    Owns the per-peer outbound TCP connections and the sender thread, so
    the executor never blocks on a peer's full socket buffer.  Splitting
    it out of the executor ({!Tcp}) gives crash-recovery a clean seam:
    killing an incarnation is [shutdown]; a recovered incarnation simply
    creates a fresh manager and redials.

    Three responsibilities live here:

    - {b Fault interposition}: every frame gets a
      {!Fault_plane.verdict} using the sender's view at send time and
      the wall clock; dropped frames are counted per destination, delayed
      frames sit in the queue until their release time.  Interposition
      happens on encoded frames, below the codec.
    - {b Reconnection}: connections are dialed on demand with {e bounded
      exponential backoff with jitter} per destination (replacing the old
      fixed 50 × 20 ms retry budget, which blocked the sender thread and
      starved other peers).  While a destination is in backoff, frames to
      it are dropped — exactly the loss a down peer implies.
    - {b Accounting}: messages/bytes sent, per-destination drops,
      connect attempts and re-establishments, and bytes sent inside
      healing windows (for the bench's recovery-cost numbers). *)

type t

type stats = {
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;  (** Bytes sent inside {!Fault_plane.in_heal_window}. *)
  dropped : int array;  (** Per destination: frames never written. *)
  connect_attempts : int;
  reconnects : int;  (** Successful dials beyond the first, per peer. *)
}

(** [create ~n ~id ~ports ~hello ~now_ms ~plane ()] starts the sender
    thread.  [hello] is the already-framed handshake written first on
    every new connection; [now_ms] the shared run clock.
    [backoff_base_ms]/[backoff_cap_ms] bound the reconnect backoff
    (defaults 10 / 500 ms; logical-clock runs pass a small cap so a
    recovered peer is redialed well within its catch-up slack). *)
val create :
  ?backoff_base_ms:float ->
  ?backoff_cap_ms:float ->
  n:int ->
  id:int ->
  ports:int array ->
  hello:string ->
  now_ms:(unit -> float) ->
  plane:Fault_plane.t ->
  unit ->
  t

(** Take a frame's fault verdict and release time now, from [src_view]
    (the sender's current view, the logical clock for partition
    verdicts) and the wall clock, then hold the frame until the next
    {!release}.  Never blocks; executor thread only.  Holding is what
    makes the WAL write ahead of the wire: the executor releases an
    iteration's frames only once that iteration's WAL snapshot is on
    disk. *)
val send : t -> dst:int -> src_view:int -> string -> unit

(** Hand every frame held since the previous call to the sender thread,
    in send order, under one acquisition of the queue lock.  Executor
    thread only. *)
val release : t -> unit

(** Wait until the queue has fully drained (including frames still held
    for pacing, but not frames held for {!release}) or [timeout_s]
    elapsed; returns whether it drained.
    Called on the crash path so that frames the protocol logically sent
    before the crash point reach the wire — the simulator's crash
    semantics, where scheduled deliveries from the victim survive. *)
val flush : t -> timeout_s:float -> bool

val stats : t -> stats

(** Graceful teardown: drop anything still queued, close connections,
    join the sender thread. *)
val shutdown : t -> unit

(** Forced-teardown path: close the sockets out from under the sender
    without joining (a subsequent {!shutdown} still joins). *)
val force_close : t -> unit
