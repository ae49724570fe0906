(** Environment handed to a protocol node.

    A consensus node is a pure event-driven state machine; everything it can
    do to the outside world goes through this record.  The experiment harness
    wires it to the discrete-event simulator, while unit tests can supply a
    mock environment and drive a node directly. *)

type 'msg t = {
  id : int;  (** This node's identifier, [0 <= id < n]. *)
  validators : Validator_set.t;
  delta : float;  (** The known message-delay bound Delta, in milliseconds. *)
  now : unit -> float;  (** Current time in milliseconds. *)
  send : int -> 'msg -> unit;  (** Unicast to a node (including self). *)
  multicast : 'msg -> unit;
      (** Send to every node, self included (self-delivery is immediate). *)
  set_timer : float -> (unit -> unit) -> unit -> unit;
      (** [set_timer delay callback] schedules [callback] after [delay]
          milliseconds and returns a cancel thunk, which cancels
          [callback]'s current arming; cancelling one that has fired is a
          no-op.  A later [set_timer] with the same callback (compared
          physically) may reuse the timer, so a node keeps only the latest
          thunk: an earlier one may cancel the new arming.  A node that
          builds its callback once re-arms it without allocating; a
          callback set again while still pending fires twice.  Both
          substrates implement this through [Bft_sim.Timer_row]. *)
  leader_of : int -> int;  (** Leader election function [L(view)]. *)
  make_payload : view:int -> parent:Block.t -> Payload.t;
      (** The fixed payload [b_v] for a block proposed at [view] extending
          [parent]; deterministic per view so that the optimistic and normal
          proposals of an honest leader carry the same block.  Parametric
          runs ignore [parent]; client-traffic runs read the parent's batch
          cursor to cut the next mempool batch (lib/mempool). *)
  on_commit : Block.t -> unit;
      (** Invoked exactly once per block, in chain order, when this node
          commits it. *)
  on_propose : Block.t -> unit;
      (** Invoked when this node first broadcasts a given block (used by the
          metrics collector to timestamp block creation). *)
  probe : (Probe.event -> unit) option;
      (** Observability hook: node-internal protocol events (vote sends,
          certificate assembly, timeouts — see {!Probe}).  [None] outside
          traced runs.  Instrumented code matches on it and builds the
          event only under [Some]:
          [match env.probe with Some probe -> probe ev | None -> ()].  A
          disabled probe then costs one comparison and allocates nothing;
          a thunk passed to a helper would be a closure allocated at every
          call site, probe or not. *)
}

(** {2 Byzantine-behaviour wrappers}

    These derive a misbehaving environment from an honest one by
    intercepting the outgoing side; the node logic stays untouched. *)

(** [with_outgoing_filter ~keep env] silently drops any sent or multicast
    message for which [keep] is false (e.g. a vote withholder). *)
val with_outgoing_filter : keep:('msg -> bool) -> 'msg t -> 'msg t

(** [with_outgoing_delay ~delay env] holds every outgoing message for
    [delay] ms before handing it to the network. *)
val with_outgoing_delay : delay:float -> 'msg t -> 'msg t

(** Quorum size shortcut. *)
val quorum : 'msg t -> int

val weak_quorum : 'msg t -> int
val n : 'msg t -> int
val is_leader : 'msg t -> view:int -> bool
