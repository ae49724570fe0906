(** Compiled link-level view of a fault schedule.

    {!compile} turns the partition / loss / delay events of a schedule into
    {!Bft_sim.Link_windows}: flat window arrays that the simulator's engine
    and the socket transport's fault plane query for every message in
    O(#windows) with no allocation (pinned by test_sim); crash and recover
    events are not link-level and are ignored here (the harness interprets
    those directly). *)

(** Windows keep the schedule's order.  A partition's nodes absent from
    every listed group form an implicit extra group: all of them on the
    same side, matching the "rest of the cluster" reading. *)
val compile : n:int -> Fault_schedule.t -> Bft_sim.Link_windows.t
