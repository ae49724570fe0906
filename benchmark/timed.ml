(* [Make (P)] is protocol [P] with every call across a layer boundary timed
   as a {!Span}: message handlers (by [P.classify]), [start], timer
   callbacks, every [Env] callback the node makes, and the context-free
   functions a substrate calls ([cpu_cost], the wire codec and the WAL
   snapshot encoder).  [Env.now] and [Env.leader_of] are plain reads and
   stay untimed: a span would cost more than the call.

   The wrapper changes no behaviour: it forwards every call unchanged, so a
   traced simulator run commits the same chain and processes the same
   events as its untraced twin (the benchmark checks this). *)

open Bft_types

module Make (P : Protocol_intf.S) :
  Protocol_intf.S with type msg = P.msg and type wal = P.wal = struct
  type msg = P.msg

  let msg_size = P.msg_size
  let cpu_cost m = Span.run Span.Cpu_cost ~slot:(-1) (fun () -> P.cpu_cost m)
  let classify = P.classify
  let payload_bytes = P.payload_bytes
  let view_of = P.view_of
  let encode_msg m = Span.run Span.Encode ~slot:(-1) (fun () -> P.encode_msg m)
  let decode_msg s = Span.run Span.Decode ~slot:(-1) (fun () -> P.decode_msg s)

  type node = { id : int; inner : P.node }
  type wal = P.wal

  let wal_create = P.wal_create

  let wal_encode w =
    Span.run Span.Wal_encode ~slot:(-1) (fun () -> P.wal_encode w)

  let wal_decode = P.wal_decode

  let wrap_env (env : msg Env.t) =
    let slot = env.Env.id in
    let span kind f = Span.run kind ~slot f in
    {
      env with
      Env.send = (fun dst m -> span Span.Send (fun () -> env.Env.send dst m));
      multicast = (fun m -> span Span.Multicast (fun () -> env.Env.multicast m));
      set_timer =
        (fun delay f ->
          span Span.Set_timer (fun () ->
              env.Env.set_timer delay (fun () -> span Span.Timer f)));
      make_payload =
        (fun ~view ~parent ->
          span Span.Make_payload (fun () -> env.Env.make_payload ~view ~parent));
      on_commit = (fun b -> span Span.On_commit (fun () -> env.Env.on_commit b));
      on_propose =
        (fun b -> span Span.On_propose (fun () -> env.Env.on_propose b));
    }

  let create ?equivocate ?wal env =
    Span.bind_thread env.Env.id;
    { id = env.Env.id; inner = P.create ?equivocate ?wal (wrap_env env) }

  let start nd = Span.run Span.Start ~slot:nd.id (fun () -> P.start nd.inner)

  let handle nd ~src m =
    let kind =
      match P.classify m with
      | `Proposal -> Span.Proposal
      | `Vote -> Span.Vote
      | `Timeout -> Span.Timeout
      | `Other -> Span.Other
    in
    Span.run kind ~slot:nd.id (fun () -> P.handle nd.inner ~src m)

  let msg_digest = P.msg_digest
  let pp_msg = P.pp_msg
  let vote_slot = P.vote_slot
  let state_hash nd = P.state_hash nd.inner
  let current_view nd = P.current_view nd.inner
  let lock_view nd = P.lock_view nd.inner
  let wal_hash = P.wal_hash
  let wal_consistent nd = P.wal_consistent nd.inner
end
