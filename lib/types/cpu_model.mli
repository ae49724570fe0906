(** Message-processing CPU cost model.

    The evaluation hardware (m5.large, Intel Xeon Platinum 8000, 2 vCPU)
    spends real time verifying ED25519 signatures and hashing payloads; at
    n = 200 a certificate carries 134 signatures, so this cost scales with
    the network and is what bends the paper's Figure 6 curves downward as n
    grows.  Protocol message types map to costs using these constants; the
    simulator serializes each node's processing on a per-node CPU queue.

    Costs are amortized the way real implementations amortize them: a
    certificate already assembled locally from verified votes (or received
    twice) costs only a cache lookup, not a re-verification.

    A protocol's cost writer ({!Protocol_intf.S.cpu_cost}) reads the three
    constants and does its own arithmetic: {!verify_signatures} and
    {!hash_payload} return a float across a module boundary, which the dev
    profile's [-opaque] boxes, so a per-delivery cost must not call them.
    They are the reference formulas: a writer performs the same float
    operations in the same order, and the cost-model tests compare the two
    bit for bit. *)

(** One ED25519 signature verification, ms. *)
val sig_verify_ms : float

(** Hashing one payload byte, ms. *)
val hash_ms_per_byte : float

(** Deduplication table lookup for an already-known certificate, ms. *)
val cache_check_ms : float

(** [verify_signatures k] — cost of verifying [k] fresh signatures:
    [float_of_int k *. sig_verify_ms]. *)
val verify_signatures : int -> float

(** [hash_payload bytes] — cost of hashing a payload of [bytes] bytes:
    [float_of_int bytes *. hash_ms_per_byte]. *)
val hash_payload : int -> float
