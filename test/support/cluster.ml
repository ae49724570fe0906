(* A hand-wired cluster of Pipelined/Commit Moonshot nodes on a raw engine,
   for scenario tests that need direct control over the network: partitions,
   healing, per-link drops.  (The Harness covers the standard experiment
   shapes; this helper covers everything it deliberately does not expose.)
   Nodes are hosted like the Harness hosts them, through
   [Node_host.engine_io], so a node's timers belong to it and a crash
   quenches them. *)

type t = {
  engine : Moonshot.Message.t Bft_sim.Engine.t;
  nodes : Moonshot.Pipelined_node.t option array;  (* current incarnations *)
  start_all : unit -> unit;
  recover : int -> unit;
  mutable isolated : int list;
}

module type Pipelined =
  Bft_types.Protocol_intf.S
    with type msg = Moonshot.Message.t
     and type node = Moonshot.Pipelined_node.t

let create ?(precommit = false) ?(n = 4) ?(hop = 10.) ?(delta = 50.) () =
  let network =
    Bft_sim.Network.make
      ~latency:(Bft_sim.Latency.Uniform { base = hop; jitter = 0. })
      ~delta ()
  in
  let engine =
    Bft_sim.Engine.create ~n ~network ~seed:1 ~msg_size:Moonshot.Message.size ()
  in
  let (module P : Pipelined) =
    if precommit then (module Moonshot.Pipelined_node.Commit_protocol)
    else (module Moonshot.Pipelined_node.Protocol)
  in
  let module H = Bft_net.Node_host.Make (P) in
  let policy =
    {
      Bft_net.Node_host.n;
      delta;
      leader_of = (fun view -> (view - 1) mod n);
      payload_bytes = 0;
      ingest = None;
      trace = None;
      faults = None;
    }
  in
  let nodes = Array.make n None in
  (* Every node keeps a WAL across incarnations: a restart resumes at the
     recorded view with its vote slots intact. *)
  let hosts =
    Array.init n (fun id ->
        H.create policy ~wal:(P.wal_create ())
          ~on_spawn:(fun node handler ->
            nodes.(id) <- Some node;
            Bft_sim.Engine.set_handler engine id handler)
          ~id
          (Bft_net.Node_host.engine_io engine id))
  in
  Array.iter H.spawn hosts;
  let t =
    {
      engine;
      nodes;
      start_all = (fun () -> Array.iter H.start hosts);
      recover = (fun i -> H.recover hosts.(i));
      isolated = [];
    }
  in
  Bft_sim.Engine.set_link_filter engine (fun ~src ~dst ->
      (not (List.mem src t.isolated)) && not (List.mem dst t.isolated));
  t

let start t = t.start_all ()
let run t ~until = Bft_sim.Engine.run t.engine ~until

(* Sever all links to and from the given nodes (both directions). *)
let isolate t ids = t.isolated <- ids
let heal t = t.isolated <- []
let node t i = Option.get t.nodes.(i)
let committed t i = Moonshot.Pipelined_node.committed (node t i)
let current_view t i = Moonshot.Pipelined_node.current_view (node t i)

(* Crash a node: the engine detaches its handler, suppresses its sends and
   quenches its timers and the deliveries addressed to it. *)
let crash t i = Bft_sim.Engine.crash t.engine i

(* Restart from the write-ahead log: the next incarnation resumes at the
   recorded view with its vote slots intact. *)
let restart t i =
  Bft_sim.Engine.recover t.engine i;
  t.recover i
