(** The paper's WAN: five AWS regions and their observed inter-region
    latencies (Table II, 90th percentile, milliseconds).

    Nodes are distributed evenly across the regions round-robin, exactly as
    in the evaluation setting. *)

(** The number of regions, 5. *)
val count : int

(** The raw 5x5 latency table, source rows and destination columns in
    Table II order: us-east-1, us-west-1, eu-north-1, ap-northeast-1,
    ap-southeast-2. *)
val table : float array array

(** The {!Bft_sim.Latency.t} model for a WAN built from the table: node
    [i] sits in the region of index [i mod count] (round-robin
    assignment). *)
val latency_model : unit -> Bft_sim.Latency.t

(** The paper's per-node egress bandwidth: 10 Gbit/s (m5.large burst). *)
val bandwidth_bps : float

(** Print Table II as a formatted latency matrix. *)
val print_table : Format.formatter -> unit
