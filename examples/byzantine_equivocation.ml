(* A Byzantine proposer that equivocates: whenever node 0 leads a view it
   crafts two conflicting blocks and serves a different one to each half of
   the network.  The run demonstrates that

   - safety holds: the harness cross-checks every commit of every node and
     would raise [Safety_violation] on conflicting commits at a height;
   - liveness holds: split votes mean neither conflicting block gathers a
     quorum, the view times out, and honest leaders keep extending the
     chain.

     dune exec examples/byzantine_equivocation.exe
*)

open Bft_runtime

let () =
  let cfg =
    {
      (Config.default Protocol_kind.Pipelined_moonshot ~n:8) with
      Config.byzantine = [ (0, Byzantine.Equivocate) ];
      duration_ms = 30_000.;
      delta_ms = 500.;
    }
  in
  Format.printf
    "8-node WAN; node 0 equivocates in every view it leads (1 of every 8).@.@.";
  let outcome =
    try
      let r = Harness.run cfg in
      `Safe r
    with Bft_chain.Commit_log.Safety_violation msg -> `Violated msg
  in
  match outcome with
  | `Violated msg ->
      Format.printf "SAFETY VIOLATION (this must never print): %s@." msg;
      exit 1
  | `Safe r ->
      let m = r.Harness.metrics in
      Format.printf "safety          : OK (no conflicting commits at any height)@.";
      Format.printf "blocks committed: %d in %.0f s@." m.Metrics.committed_blocks
        (cfg.Config.duration_ms /. 1000.);
      Format.printf "avg latency     : %.0f ms@." m.Metrics.avg_latency_ms;
      Format.printf "blocks proposed : %d (includes the equivocator's doubles)@."
        m.Metrics.proposed_blocks;
      Format.printf
        "@.The equivocator's views stall (votes split 4/4, no quorum), cost one@.";
      Format.printf
        "view timer each, and the protocol recovers through its fallback path.@."
