(** Table I of the paper: the theoretical comparison of chain-based
    rotating-leader BFT SMR protocols, as structured data plus a renderer.

    The Moonshot rows also serve as the specification the implementation is
    tested against (view-timer lengths, minimum latencies in the happy
    path). *)

type model = Partially_synchronous | Synchronous

type responsiveness = Not_responsive | Consecutive_honest | Standard

type row = {
  name : string;
  model : model;
  min_commit_latency : string;  (** In units of delta, e.g. ["3d"]. *)
  min_block_period : string;  (** Minimum view-change block period. *)
  reorg_resilient : bool;
  view_length : string;  (** In units of Delta, e.g. ["3D"]. *)
  pipelined : bool;
  steady_state_cc : string;  (** Communication complexity. *)
  view_change_cc : string;
  responsiveness : responsiveness;
}

(** All rows of Table I, in the paper's order; the last three are this
    work's Simple, Pipelined and Commit Moonshot. *)
val table1 : row list

(** Render the table, one protocol per line. *)
val print : Format.formatter -> unit

(** {2 Specification constants used by tests} *)

(** Happy-path commit latency in message hops (3 = propose, vote, vote). *)
val moonshot_commit_hops : int

(** Happy-path block period in message hops (1 = a single proposal hop
    between consecutive honest proposals). *)
val moonshot_block_period_hops : int

val jolteon_commit_hops : int
val jolteon_block_period_hops : int
