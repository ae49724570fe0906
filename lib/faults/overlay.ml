module W = Bft_sim.Link_windows

(* Each partition window is compiled to a per-node group index, with -1 for
   nodes in no listed group. *)
let group_of ~n groups =
  let group_of = Array.make n (-1) in
  List.iteri
    (fun gi members -> List.iter (fun node -> group_of.(node) <- gi) members)
    groups;
  group_of

let compile ~n (schedule : Fault_schedule.t) =
  List.fold_left
    (fun w -> function
      | Fault_schedule.Crash _ | Fault_schedule.Recover _ -> w
      | Fault_schedule.Partition { groups; from_; until } ->
          W.partition w ~from_ ~until ~group_of:(group_of ~n groups)
      | Fault_schedule.Link_loss { prob; from_; until } ->
          W.loss w ~from_ ~until ~prob
      | Fault_schedule.Delay_spike { extra_ms; from_; until } ->
          W.delay w ~from_ ~until ~extra_ms)
    W.empty schedule
