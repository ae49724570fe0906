(** Outbound connection manager: one per validator incarnation.

    Owns the per-peer outbound TCP connections and their output buffers,
    written from the executor's own loop and never blocking it.  Killing
    an incarnation is [close]; a recovered incarnation creates a fresh
    manager and redials.

    - {b Fault interposition}: every frame gets a
      {!Fault_plane.verdict} using the sender's view at send time and
      the wall clock, below the codec; the frames not dropped wait in one
      FIFO, in send order, until released and due.  The FIFO is a ring of
      parallel arrays (release time, destination, body, trailer length),
      so once it has grown to the run's backlog a send allocates nothing.
    - {b Reconnection}: dials do not wait for the handshake and back off
      {e exponentially with jitter}, per destination.  Frames to a
      destination in backoff are dropped, the loss a down peer implies.
    - {b Output commit}: a frame enters its peer's output buffer
      ({!Wire.Frame_writer}) only once {!release} has released it. *)

type t

(** A frame counts as sent, with all its bytes ({!Wire.frame_size}: the
    length prefix, trailer length, body and trailer), once the kernel has
    taken all of its peer's output buffer; as dropped if the connection
    fails first; as neither if {!close} finds it there. *)
type stats = {
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
      (** Bytes sent inside {!Fault_plane.in_heal_window}. *)
  dropped : int array;
      (** Per destination: frames the fault plane dropped, and frames a
          destination in backoff or a failed connection lost. *)
  reconnects : int;  (** Successful dials beyond the first, per peer. *)
}

(** [create ~n ~id ~ports ~hello ~now_into ~plane ()]: [hello] is the
    handshake body, framed and written first on every new connection;
    [now_into slot i] stores the run clock, in ms, into [slot.(i)] (a
    float returned from a closure would be boxed).  The reconnect backoff
    starts at 10 ms and doubles up to [backoff_cap_ms] (default 500 ms). *)
val create :
  ?backoff_cap_ms:float ->
  n:int ->
  id:int ->
  ports:int array ->
  hello:string ->
  now_into:(float array -> int -> unit) ->
  plane:Fault_plane.t ->
  unit ->
  t

(** Take a frame's fault verdict and release time now, from [src_view]
    (the sender's current view, the logical clock for partition
    verdicts) and the wall clock, then hold it until the next {!release}:
    the executor releases an iteration's frames once its WAL snapshot is
    on disk.  The frame is [body] with a [payload]-byte trailer
    ({!Wire.Frame_writer.add}). *)
val send : t -> dst:int -> src_view:int -> payload:int -> string -> unit

(** Release the frames held since the previous call, commit those due to
    their peers' output, and write each output until its socket would
    block.  Allocates nothing unless it dials a peer. *)
val release : t -> unit

(** The connections still dialing or with output the kernel has not
    taken yet: the write set of the loop's [select]. *)
val blocked : t -> Unix.file_descr list

(** [wait_s t bound]: the loop's [select] timeout in seconds, [bound]
    (negative: none) or sooner if a paced frame falls due before it. *)
val wait_s : t -> float -> float

(** Release, then write everything, waiting out pacing delays; return
    whether all of it reached the kernel by 0.25 s after the last paced
    frame's release time.  The crash path: frames the protocol sent
    before the crash point reach the wire, as scheduled deliveries from
    a crashed node do in the simulator. *)
val drain : t -> bool

val stats : t -> stats

(** Close the connections, dropping everything not yet written.  Only
    {!stats} may follow. *)
val close : t -> unit
