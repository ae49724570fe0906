(* Simulation-friendly GC settings.  The simulator's steady state allocates
   small short-lived blocks (messages that escape the engine's pools, trace
   thunks, metrics conses): a 32 M-word minor heap promotes far less of that
   churn than the 256 K-word default, and a higher space overhead defers
   major-heap sliding until a run has actually built up live state.  Each
   domain has its own minor heap, so worker domains apply this themselves
   on spawn. *)
let tune_gc () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 200 }

(* Each slot is written by exactly one task and read only after every domain
   has been joined, so plain arrays suffice; the join is the happens-before
   edge that publishes the writes. *)
type 'b slot =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ~jobs f tasks =
  match tasks with
  | [] -> []
  | _ when jobs <= 1 -> List.map f tasks
  | _ ->
      let tasks = Array.of_list tasks in
      let n = Array.length tasks in
      let jobs = min jobs n in
      let results = Array.make n Pending in
      let next = Atomic.make 0 in
      let rec worker () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
            (try Done (f tasks.(i))
             with e -> Raised (e, Printexc.get_raw_backtrace ())));
          worker ()
        end
      in
      let spawned () =
        tune_gc ();
        worker ()
      in
      let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn spawned) in
      worker ();
      Array.iter Domain.join domains;
      Array.to_list
        (Array.map
           (function
             | Done r -> r
             | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
             | Pending -> assert false)
           results)
