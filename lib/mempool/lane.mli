(** Bounded FIFO of pending commands (one mempool shard).

    A ring over two preallocated unboxed arrays — sequence number and submit
    time per entry — so pushes and pops on the ingestion hot path allocate
    nothing.  Times come in and go out through float array slots: a float
    passed across a module boundary is boxed.  Capacity is fixed at
    creation; [push] on a full lane raises (admission control decides
    before pushing). *)

type t

val create : capacity:int -> t
val capacity : t -> int
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

(** [push t ~seq times i] appends command [seq] submitted at [times.(i)].
    Raises [Invalid_argument] when full. *)
val push : t -> seq:int -> float array -> int -> unit

val front_seq : t -> int

(** [front_time_into t times i] writes the front command's submit time to
    [times.(i)]. *)
val front_time_into : t -> float array -> int -> unit

(** Raises [Invalid_argument] when empty. *)
val pop : t -> unit
