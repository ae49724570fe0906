(* A hand-wired cluster of Pipelined/Commit Moonshot nodes on a raw engine,
   for scenario tests that need direct control over the network: partitions,
   healing, per-link drops.  (The Harness covers the standard experiment
   shapes; this helper covers everything it deliberately does not expose.) *)

open Bft_types

type t = {
  engine : Moonshot.Message.t Bft_sim.Engine.t;
  nodes : Moonshot.Pipelined_node.t array;
  wals : Moonshot.Wal.t array;
  envs : Moonshot.Message.t Env.t array;
  precommit : bool;
  n : int;
  mutable isolated : int list;
}

let create ?(precommit = false) ?(n = 4) ?(hop = 10.) ?(delta = 50.) () =
  let network =
    Bft_sim.Network.make
      ~latency:(Bft_sim.Latency.Uniform { base = hop; jitter = 0. })
      ~delta ()
  in
  let engine =
    Bft_sim.Engine.create ~n ~network ~seed:1 ~msg_size:Moonshot.Message.size ()
  in
  let validators = Validator_set.make n in
  let env_of id =
    {
      Env.id;
      validators;
      delta;
      now = (fun () -> Bft_sim.Engine.now engine);
      send = (fun dst msg -> Bft_sim.Engine.send engine ~src:id ~dst msg);
      multicast = (fun msg -> Bft_sim.Engine.multicast engine ~src:id msg);
      set_timer = (fun d f -> Bft_sim.Engine.set_timer engine d f);
      leader_of = (fun view -> (view - 1) mod n);
      make_payload = (fun ~view ~parent:_ -> Payload.make ~id:view ~size_bytes:0);
      on_commit = (fun _ -> ());
      on_propose = (fun _ -> ());
      probe = None;
    }
  in
  let wals = Array.init n (fun _ -> Moonshot.Wal.create ()) in
  let envs = Array.init n env_of in
  let nodes =
    Array.init n (fun id ->
        let node =
          Moonshot.Pipelined_node.create ~precommit ~wal:wals.(id) envs.(id)
        in
        Bft_sim.Engine.set_handler engine id
          (Moonshot.Pipelined_node.handle node);
        node)
  in
  let t = { engine; nodes; wals; envs; precommit; n; isolated = [] } in
  Bft_sim.Engine.set_link_filter engine (fun ~src ~dst ->
      (not (List.mem src t.isolated)) && not (List.mem dst t.isolated));
  t

let start t = Array.iter Moonshot.Pipelined_node.start t.nodes
let run t ~until = Bft_sim.Engine.run t.engine ~until

(* Sever all links to and from the given nodes (both directions). *)
let isolate t ids = t.isolated <- ids
let heal t = t.isolated <- []
let committed t i = Moonshot.Pipelined_node.committed t.nodes.(i)
let current_view t i = Moonshot.Pipelined_node.current_view t.nodes.(i)
let node t i = t.nodes.(i)


(* Crash a node: its handler drops everything and its timers go stale (the
   old node object is unreachable, so stale timer callbacks touch only dead
   state -- their sends still exist, modelling in-flight messages from just
   before the crash). *)
let crash t i =
  Bft_sim.Engine.set_handler t.engine i (fun ~src:_ _ -> ())

(* Restart from the write-ahead log: a fresh node object over the same env
   and WAL resumes at the recorded view with its vote slots intact. *)
let restart t i =
  let node =
    Moonshot.Pipelined_node.create ~precommit:t.precommit ~wal:t.wals.(i)
      t.envs.(i)
  in
  t.nodes.(i) <- node;
  Bft_sim.Engine.set_handler t.engine i (Moonshot.Pipelined_node.handle node);
  Moonshot.Pipelined_node.start node
