(** Block synchronizer: fetches missing ancestors so deferred commits can
    complete.

    A node that was partitioned (or started late) can receive certificates
    for the chain's tip while lacking the blocks in between; its commits
    defer inside {!Node_core} until the ancestors arrive.  This module
    drives the catch-up: it requests the first missing ancestor from the
    proposer of its known child (who certainly held it when extending it),
    rotates to other peers on retry (the hinted proposer may be Byzantine),
    and answers peers' requests with chain segments from the local store.

    Generic over the protocol's message type: each protocol supplies its
    request/response constructors, so Moonshot and Jolteon share the
    implementation. *)

open Bft_types

type 'msg t

val create :
  core:'msg Node_core.t ->
  env:'msg Env.t ->
  make_request:(Hash.t -> 'msg) ->
  make_response:(Block.t list -> 'msg) ->
  'msg t

(** Call whenever local state changed (any message handled): requests the
    first missing ancestor if a commit is deferred, at most once per Delta
    per target, and keeps a retry timer alive until nothing is missing. *)
val poke : 'msg t -> unit

(** Serve a peer's request for [hash] from the local store (no-op when the
    block is unknown). *)
val handle_request : 'msg t -> src:int -> Hash.t -> unit

(** Ingest a response batch; completes deferred commits and re-{!poke}s. *)
val handle_response : 'msg t -> Block.t list -> unit

(** Number of sync requests sent.  Test seam: test_node_core's sync
    rate-limit cases count requests with it. *)
val requests_sent : 'msg t -> int

(** Canonical digest of the synchronizer's control state for model-checker
    state matching.  The last request's send time and the request counter
    are excluded (wall-clock values and statistics; see the implementation
    note on the [recently_asked] abstraction). *)
val state_hash : 'msg t -> Hash.t
