(* Machine-readable perf trajectory of the bench runs themselves.

   Every experiment dispatched by [main.ml] is timed (wall clock) and
   attributed the simulator events its runs processed and the heap bytes
   those event loops allocated (via the harness's atomic lifetime counters,
   so worker-domain runs count).  [write] dumps the collected entries as
   BENCH_simcore.json so successive PRs can diff events/second and
   bytes-allocated-per-event instead of eyeballing bench output. *)

type entry = {
  name : string;
  wall_s : float;
  events : int;
  alloc_bytes : int;
}

let entries : entry list ref = ref []

let with_experiment name f =
  let events0 = Bft_runtime.Harness.events_processed_total () in
  let alloc0 = Bft_runtime.Harness.bytes_allocated_total () in
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () ->
      let wall_s = Unix.gettimeofday () -. t0 in
      let events = Bft_runtime.Harness.events_processed_total () - events0 in
      let alloc_bytes =
        Bft_runtime.Harness.bytes_allocated_total () - alloc0
      in
      entries := { name; wall_s; events; alloc_bytes } :: !entries)
    f

let events_per_sec ~events ~wall_s =
  if wall_s > 0. then float_of_int events /. wall_s else 0.

let bytes_per_event ~events ~alloc_bytes =
  if events > 0 then float_of_int alloc_bytes /. float_of_int events else 0.

let buffer_entry b { name; wall_s; events; alloc_bytes } =
  Printf.bprintf b
    "    {\"name\": %S, \"wall_clock_s\": %.3f, \"events\": %d, \
     \"events_per_sec\": %.0f, \"alloc_bytes\": %d, \
     \"alloc_bytes_per_event\": %.1f}"
    name wall_s events
    (events_per_sec ~events ~wall_s)
    alloc_bytes
    (bytes_per_event ~events ~alloc_bytes)

let write ~jobs ~path =
  let recorded = List.rev !entries in
  let wall_s = List.fold_left (fun a e -> a +. e.wall_s) 0. recorded in
  let events = List.fold_left (fun a e -> a + e.events) 0 recorded in
  let alloc_bytes =
    List.fold_left (fun a e -> a + e.alloc_bytes) 0 recorded
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"schema\": \"bench_simcore/v2\",\n";
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Printf.bprintf b
    "  \"total\": {\"wall_clock_s\": %.3f, \"events\": %d, \
     \"events_per_sec\": %.0f, \"alloc_bytes\": %d, \
     \"alloc_bytes_per_event\": %.1f},\n"
    wall_s events
    (events_per_sec ~events ~wall_s)
    alloc_bytes
    (bytes_per_event ~events ~alloc_bytes);
  Buffer.add_string b "  \"experiments\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      buffer_entry b e)
    recorded;
  Buffer.add_string b "\n  ]\n}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents b));
  Format.printf "@.wrote %s: %d experiments, %.1f s wall, %d events \
                 (%.0f events/s, %.1f alloc B/event, jobs=%d)@."
    path (List.length recorded) wall_s events
    (events_per_sec ~events ~wall_s)
    (bytes_per_event ~events ~alloc_bytes)
    jobs
