(** Configuration shared by every client-traffic ingestion site.

    One record describes the simulated client population, the arrival
    process, and the mempool's admission bounds; both the simulator harness
    and the live TCP cluster build their ingestion state from it, which is
    what makes cross-substrate runs comparable. *)

(** How arrival watermarks are read.

    [Wall] draws Poisson arrivals against the substrate's clock (simulated
    milliseconds, or real wall time over sockets) — the mode for latency
    measurements.  [Views] anchors arrivals to view numbers ([per_view]
    commands become visible per view), a pure function of the chain that is
    identical across substrates — the mode for cross-validation, mirroring
    the view-anchored fault clocks of lib/faults. *)
type clock = Wall | Views

type t = {
  clients : int;  (** simulated client population (lane = client mod lanes) *)
  rate_per_s : float;  (** aggregate offered load, commands/s ([Wall]) *)
  per_view : int;  (** arrivals visible per view ([Views]) *)
  clock : clock;
  lanes : int;  (** independent payload lanes (sharding degree) *)
  lane_capacity : int;  (** admitted commands per lane before deferral *)
  backlog_capacity : int;  (** deferred commands per lane before rejection *)
  max_batch : int;  (** commands a leader may draw into one block *)
  seed : int;  (** seeds the arrival stream (client identity + timing) *)
}

(** One million clients, 5000 commands/s, 8 lanes of 4096 (+4096 backlog),
    512-command batches, wall clock. *)
val default : t

(** Raises [Invalid_argument] on non-positive population, lanes, bounds or
    rates. *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit
