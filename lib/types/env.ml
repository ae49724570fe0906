type 'msg t = {
  id : int;
  validators : Validator_set.t;
  delta : float;
  now : unit -> float;
  send : int -> 'msg -> unit;
  multicast : 'msg -> unit;
  set_timer : float -> (unit -> unit) -> unit -> unit;
  leader_of : int -> int;
  make_payload : view:int -> parent:Block.t -> Payload.t;
  on_commit : Block.t -> unit;
  on_propose : Block.t -> unit;
  probe : (Probe.event -> unit) option;
}

let quorum t = Validator_set.quorum t.validators
let weak_quorum t = Validator_set.weak_quorum t.validators
let n t = t.validators.Validator_set.n
let is_leader t ~view = t.leader_of view = t.id

let with_outgoing_filter ~keep t =
  {
    t with
    send = (fun dst msg -> if keep msg then t.send dst msg);
    multicast = (fun msg -> if keep msg then t.multicast msg);
  }

let with_outgoing_delay ~delay t =
  let hold act =
    let (_cancel : unit -> unit) = t.set_timer delay act in
    ()
  in
  {
    t with
    send = (fun dst msg -> hold (fun () -> t.send dst msg));
    multicast = (fun msg -> hold (fun () -> t.multicast msg));
  }
