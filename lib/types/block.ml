type t = {
  hash : Hash.t;
  parent : Hash.t;
  view : int;
  height : int;
  proposer : int;
  payload : Payload.t;
}

let hash_fields ~parent ~view ~height ~proposer ~(payload : Payload.t) =
  Hash.of_ints6 (Hash.to_int parent) view height proposer payload.Payload.id
    payload.Payload.size_bytes

let genesis =
  let payload = Payload.empty ~id:0 in
  {
    hash = hash_fields ~parent:Hash.null ~view:0 ~height:0 ~proposer:(-1) ~payload;
    parent = Hash.null;
    view = 0;
    height = 0;
    proposer = -1;
    payload;
  }

let create ~parent ~view ~proposer ~payload =
  if view <= parent.view then
    invalid_arg "Block.create: view must exceed the parent's view";
  let height = parent.height + 1 in
  {
    hash = hash_fields ~parent:parent.hash ~view ~height ~proposer ~payload;
    parent = parent.hash;
    view;
    height;
    proposer;
    payload;
  }

let of_wire ~parent ~view ~height ~proposer ~payload =
  if view < 0 then invalid_arg "Block.of_wire: negative view";
  if height < 0 then invalid_arg "Block.of_wire: negative height";
  if proposer < -1 then invalid_arg "Block.of_wire: bad proposer";
  { hash = hash_fields ~parent ~view ~height ~proposer ~payload;
    parent; view; height; proposer; payload }

let extends_hash t ~parent_hash = Hash.equal t.parent parent_hash

let equivocates a b =
  a.view = b.view
  && not (Hash.equal a.parent b.parent && Payload.equal a.payload b.payload)

let is_genesis t = t.height = 0 && Hash.equal t.parent Hash.null
let equal a b = Hash.equal a.hash b.hash

let pp ppf t =
  Format.fprintf ppf "block(%a, v=%d, h=%d, by=%d)" Hash.pp t.hash t.view
    t.height t.proposer
