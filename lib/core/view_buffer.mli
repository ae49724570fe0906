(** Proposals buffered by view until the node enters that view, shared by
    every protocol.  Adding, walking a view and dropping old views allocate
    nothing except when the buffer outgrows its arrays. *)

type 'a t

(** [create ~dummy]: [dummy] fills unused slots and is never returned. *)
val create : dummy:'a -> 'a t

(** [add t ~view item] buffers [item] for [view], after every earlier item. *)
val add : 'a t -> view:int -> 'a -> unit

(** [iter_view t view f ctx] applies [f ctx] to [view]'s items, oldest
    first; a top-level [f] costs no closure.  [f] may add and drop items:
    the walk visits those present when it began, until [view] is dropped. *)
val iter_view : 'a t -> int -> ('ctx -> 'a -> unit) -> 'ctx -> unit

(** [drop_below t view] drops the items of every view below [view]. *)
val drop_below : 'a t -> int -> unit

(** The sum over buffered views of the hash of the view followed by its
    items' digests, newest first: for model-checker state matching. *)
val digest : ('a -> int64) -> 'a t -> int64
