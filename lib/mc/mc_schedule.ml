type step =
  | Crash of int
  | Recover of int
  | Partition_on of int list list
  | Partition_off

let compile ~n (sched : Bft_faults.Fault_schedule.t) =
  let module Fs = Bft_faults.Fault_schedule in
  (* Explode each event into its timed edges, then linearize by time.  The
     sort is stable, so same-time edges keep schedule order. *)
  let edges = ref [] in
  let ok = ref (Ok ()) in
  List.iter
    (fun ev ->
      match ev with
      | Fs.Crash { node; at } -> edges := (at, Crash node) :: !edges
      | Fs.Recover { node; at } -> edges := (at, Recover node) :: !edges
      | Fs.Partition { groups; from_; until } ->
          edges := (until, Partition_off) :: (from_, Partition_on groups) :: !edges
      | Fs.Link_loss _ ->
          ok := Error "link loss is probabilistic; not expressible as untimed steps"
      | Fs.Delay_spike _ ->
          ok := Error "delay spikes reorder by time; not expressible as untimed steps")
    (Fs.sorted sched);
  match !ok with
  | Error _ as e -> e
  | Ok () ->
      let steps =
        List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) (List.rev !edges)
        |> List.map snd
      in
      (* Sanity: nodes in range, partitions well-nested (one open at a time —
         the checker keeps a single active partition). *)
      let bad_node i = i < 0 || i >= n in
      let rec scan open_part = function
        | [] -> Ok steps
        | Crash i :: _ when bad_node i -> Error (Printf.sprintf "crash of node %d out of range" i)
        | Recover i :: _ when bad_node i -> Error (Printf.sprintf "recover of node %d out of range" i)
        | Partition_on groups :: rest ->
            if open_part then Error "overlapping partitions are not supported"
            else if List.exists (List.exists bad_node) groups then
              Error "partition group mentions a node out of range"
            else scan true rest
        | Partition_off :: rest ->
            if open_part then scan false rest
            else Error "partition heal without an open partition"
        | (Crash _ | Recover _) :: rest -> scan open_part rest
      in
      scan false steps
