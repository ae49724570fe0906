open Bft_types
module Trace = Bft_obs.Trace

let log_src = Logs.Src.create "moonshot.host" ~doc:"Protocol node host"

module Log = (val Logs.src_log log_src : Logs.LOG)

type 'msg transport = {
  now : unit -> float;
  send : int -> 'msg -> unit;
  multicast : 'msg -> unit;
  set_timer : float -> (unit -> unit) -> unit -> unit;
}

let engine_io engine id =
  {
    now = (fun () -> Bft_sim.Engine.now engine);
    send = (fun dst msg -> Bft_sim.Engine.send engine ~src:id ~dst msg);
    multicast = (fun msg -> Bft_sim.Engine.multicast engine ~src:id msg);
    set_timer =
      (fun delay f -> Bft_sim.Engine.set_timer ~owner:id engine delay f);
  }

type verdict = { crash : bool; recover : int list }

module Fault_step = struct
  type t = { mutable crash_at : int option; mutable pending : (int * int) list }

  let create lg ~id ~incarnation =
    {
      crash_at =
        (if incarnation = 0 then Bft_faults.Logical.crash_anchor lg id
         else None);
      pending =
        (if id = Bft_faults.Logical.observer lg then
           Bft_faults.Logical.recoveries lg
         else []);
    }

  let step s ~view =
    let crash = match s.crash_at with Some v -> view >= v | None -> false in
    if crash then s.crash_at <- None;
    let due, rest = List.partition (fun (v, _) -> v <= view) s.pending in
    s.pending <- rest;
    { crash; recover = List.map snd due }
end

type policy = {
  n : int;
  delta : float;
  leader_of : int -> int;
  payload_bytes : int;
  ingest : Bft_mempool.Ingest.t option;
  trace : Trace.t option;
  faults : Bft_faults.Logical.t option;
}

module Make (P : Protocol_intf.S) = struct
  type t = {
    policy : policy;
    id : int;
    io : P.msg transport;
    wal : P.wal option;
    equivocate : bool;
    wrap : P.msg Env.t -> P.msg Env.t;
    on_commit : Block.t -> unit;
    on_propose : Block.t -> unit;
    on_verdict : verdict -> unit;
    on_spawn : P.node -> (src:int -> P.msg -> unit) -> unit;
    mutable incarnation : int;
    mutable step : Fault_step.t option;
    mutable node : P.node option;
  }

  let create policy ?(incarnation = 0) ?wal ?(equivocate = false)
      ?(wrap = Fun.id) ?(on_commit = ignore) ?(on_propose = ignore)
      ?(on_verdict = ignore) ~on_spawn ~id io =
    {
      policy;
      id;
      io;
      wal;
      equivocate;
      wrap;
      on_commit;
      on_propose;
      on_verdict;
      on_spawn;
      incarnation;
      step = None;
      node = None;
    }

  let emit t kind =
    match t.policy.trace with
    | None -> ()
    | Some sink ->
        Trace.emit sink { Trace.time = t.io.now (); node = t.id; kind }

  let view t = match t.node with Some nd -> P.current_view nd | None -> 0

  let fault_step t =
    match t.step with
    | None -> ()
    | Some s ->
        let v = Fault_step.step s ~view:(view t) in
        if v.crash || v.recover <> [] then t.on_verdict v

  let env t =
    let io = t.io and p = t.policy and id = t.id in
    {
      Env.id;
      validators = Validator_set.make p.n;
      delta = p.delta;
      now = io.now;
      send = io.send;
      multicast = io.multicast;
      set_timer =
        (match p.faults with
        | None -> io.set_timer
        | Some _ ->
            fun delay f ->
              io.set_timer delay (fun () ->
                  f ();
                  fault_step t));
      leader_of = p.leader_of;
      make_payload =
        (match p.ingest with
        | Some ing ->
            fun ~view ~parent ->
              Bft_mempool.Ingest.cut ing ~view ~parent ~now:(io.now ())
        | None ->
            fun ~view ~parent:_ ->
              Payload.make ~id:view ~size_bytes:p.payload_bytes);
      on_commit =
        (match p.trace with
        | None -> t.on_commit
        | Some _ ->
            fun b ->
              emit t
                (Trace.Committed
                   { view = b.Block.view; height = b.Block.height });
              t.on_commit b);
      on_propose = t.on_propose;
      probe =
        (match p.trace with
        | None -> None
        | Some _ -> Some (fun ev -> emit t (Trace.Node_event ev)));
    }

  let wal_of_snapshot ~id = function
    | None -> P.wal_create ()
    | Some s -> (
        match P.wal_decode s with
        | Ok w -> w
        | Error reason ->
            Log.err (fun m ->
                m "node %d: corrupt WAL snapshot (%s); restarting empty" id
                  reason);
            P.wal_create ())

  let spawn t =
    if t.incarnation > 0 then emit t (Trace.Fault Trace.Recover);
    t.step <-
      Option.map
        (fun lg -> Fault_step.create lg ~id:t.id ~incarnation:t.incarnation)
        t.policy.faults;
    let node = P.create ~equivocate:t.equivocate ?wal:t.wal (t.wrap (env t)) in
    t.node <- Some node;
    t.on_spawn node
      (match t.step with
      | None -> P.handle node
      | Some _ ->
          fun ~src msg ->
            P.handle node ~src msg;
            fault_step t)

  let start t = Option.iter P.start t.node

  let recover t =
    t.incarnation <- t.incarnation + 1;
    spawn t;
    start t

  let delivery ~src ~bytes msg =
    Trace.Delivered { src; cls = P.classify msg; view = P.view_of msg; bytes }

  (* Checked before building the event: untraced sockets allocate nothing. *)
  let delivered t ~src ~bytes msg =
    if Option.is_some t.policy.trace then emit t (delivery ~src ~bytes msg)

  let trace_deliveries trace engine =
    Option.iter
      (fun sink ->
        Bft_sim.Engine.set_delivery_tap engine (fun ~time ~src ~dst msg ->
            Trace.emit sink
              {
                Trace.time;
                node = dst;
                kind = delivery ~src ~bytes:(P.msg_size msg) msg;
              }))
      trace
end
