(** Exact allocation counting.

    On OCaml 5.1 [Gc.allocated_bytes] counts the words of the current
    minor heap at one eighth (24,000 B of list cells read as 3,012 B), so
    it lags the minor heap by up to its size, and [Gc.quick_stat]'s
    counters move only at a collection.  [Gc.minor_words] is exact, and
    [Gc.counters]' major and promoted terms together give the blocks
    allocated straight on the major heap (any block over 256 words, such
    as a 4 KB [Bytes.create]).  This module adds the two. *)

(** Bytes this domain has allocated so far: minor-heap words plus
    direct major-heap words.  A reading itself allocates a few words
    ({!measure} takes them off). *)
val allocated_bytes : unit -> float

(** [measure f]: the bytes [f ()] allocates on this domain, exactly. *)
val measure : (unit -> unit) -> float
