(* The collector lives in {!Bft_obs.Metrics}, where the socket substrate
   reads it too; this alias keeps [Bft_runtime.Metrics] and its record
   fields for the frozen benchmark driver, which names them that way. *)
include Bft_obs.Metrics
