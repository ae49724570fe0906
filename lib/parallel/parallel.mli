(** A fixed-size domain pool for embarrassingly parallel experiment grids.

    The experiment driver's unit of work is one simulator run — seconds of
    CPU, no shared state — so the pool is deliberately simple: [jobs]
    domains pull task indices from an atomic counter and write results into
    a slot array.  Results always come back in submission order, which is
    what makes a parallel sweep print byte-identical tables to a sequential
    one; tasks must not print or touch shared mutable state themselves.

    OCaml exceptions do not cross domains on their own: a raising task
    records its exception (with backtrace), the pool drains the remaining
    work, and the exception of the {e lowest-indexed} failing task is
    re-raised on the calling domain — deterministic regardless of how the
    domains interleaved. *)

(** [map ~jobs f tasks] is [List.map f tasks] computed on [min jobs
    (length tasks)] domains (the caller's domain is one of them).
    [jobs <= 1] degrades to plain [List.map] with no domain spawned. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** Apply simulation-friendly GC settings to the calling domain: a 32 M-word
    minor heap (the simulator's churn is small short-lived blocks, so a
    large nursery keeps promotion rare) and [space_overhead = 200].  {!map}
    applies it on every worker domain it spawns; CLI and bench entry points
    call it for the main domain.  GC tuning changes wall-clock only, never
    simulation results. *)
val tune_gc : unit -> unit
