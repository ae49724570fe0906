open Bft_types

let honest_block env ~view ~parent =
  Block.create ~parent ~view ~proposer:env.Env.id
    ~payload:(env.Env.make_payload ~view ~parent)

let conflicting_block env ~view ~parent =
  let honest = env.Env.make_payload ~view ~parent in
  let payload = Payload.make ~id:(-view) ~size_bytes:honest.Payload.size_bytes in
  Block.create ~parent ~view ~proposer:env.Env.id ~payload

let send env ~equivocate ~kind ~view ~parent wrap =
  let block = honest_block env ~view ~parent in
  (match env.Env.probe with
  | Some probe ->
      probe (Probe.Proposal_sent { view; height = block.Block.height; kind })
  | None -> ());
  env.Env.on_propose block;
  if not equivocate then env.Env.multicast (wrap block)
  else begin
    let block' = conflicting_block env ~view ~parent in
    env.Env.on_propose block';
    let half = Env.n env / 2 in
    for dst = 0 to Env.n env - 1 do
      env.Env.send dst (wrap (if dst < half then block else block'))
    done
  end
