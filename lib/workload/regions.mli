(** The paper's WAN: five AWS regions and their observed inter-region
    latencies (Table II, 90th percentile, milliseconds).

    Nodes are distributed evenly across the regions round-robin, exactly as
    in the evaluation setting. *)

type region = Us_east_1 | Us_west_1 | Eu_north_1 | Ap_northeast_1 | Ap_southeast_2

(** The five regions, in Table II order. *)
val all : region list

(** [List.length all], i.e. 5. *)
val count : int

(** The AWS region name, e.g. ["us-east-1"]. *)
val name : region -> string

(** Row/column of the region in {!table}, [0 .. count - 1]. *)
val index : region -> int

(** The raw 5x5 latency table, indexed by {!index}. *)
val table : float array array

(** The {!Bft_sim.Latency.t} model for a WAN built from the table: node
    [i] sits in the region of index [i mod count] (round-robin
    assignment). *)
val latency_model : unit -> Bft_sim.Latency.t

(** The paper's per-node egress bandwidth: 10 Gbit/s (m5.large burst). *)
val bandwidth_bps : float

(** Print Table II as a formatted latency matrix. *)
val print_table : Format.formatter -> unit
