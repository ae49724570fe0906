(** Sharded bounded mempool with typed admission verdicts.

    [k] independent lanes (shard = client id mod [k]), each a bounded
    {!Lane} of admitted commands plus a bounded backlog of deferred ones.
    Submission returns a typed verdict:

    - [Admitted] — the command entered its lane and will be drawn into a
      batch in FIFO order;
    - [Deferred] — the lane was full; the command waits in the lane's
      bounded backlog and is promoted automatically when the lane drains
      (original submit time preserved, so deferral is charged to its
      end-to-end latency);
    - [Rejected] — lane and backlog both full; the command is dropped and
      counted.  This is the backpressure signal under sustained overload.

    Draining is round-robin across lanes (a rotor persisting across
    batches), which gives per-lane fairness: no lane is starved while
    another has pending commands.  Conservation invariant, checked by the
    qcheck suite: [submitted = rejected + committed + pending + backlogged].

    The structure is deterministic and single-threaded by design: consensus
    replicates it by replaying the arrival stream in commit order (see
    {!Ingest}), so there is no cross-replica coordination to model. *)

type t

type verdict = Admitted | Deferred | Rejected

val create : lanes:int -> lane_capacity:int -> backlog_capacity:int -> t

(** [submit t ~client ~seq times i] offers command [seq] from [client],
    submitted at [times.(i)].  Times travel in float array slots here and
    in {!drain}, so neither boxes a float per command. *)
val submit : t -> client:int -> seq:int -> float array -> int -> verdict

(** Commands currently admitted across all lanes. *)
val pending : t -> int

(** Commands currently deferred across all backlogs. *)
val backlogged : t -> int

(** [drain t ~count times i ~f] draws up to [count] commands round-robin
    from lane fronts, calling [f ~seq ~lane] for each with its original
    submit time in [times.(i)]; promotes backlog entries as lanes free up.
    Returns the number actually drawn (short when the pool runs dry). *)
val drain :
  t -> count:int -> float array -> int -> f:(seq:int -> lane:int -> unit) -> int

(** Commands drawn per lane since creation (a copy). *)
val committed_per_lane : t -> int array

type counters = {
  submitted : int;
  admitted : int;
  deferred : int;
  rejected : int;
  committed : int;
}

val counters : t -> counters
