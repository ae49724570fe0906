open Bft_types

type t = {
  blocks : (int, Block.t) Hashtbl.t;  (* keyed by Hash.to_int *)
  by_parent : (int, Block.t list) Hashtbl.t;
}

let key h = Hash.to_int h

let create () =
  let t = { blocks = Hashtbl.create 256; by_parent = Hashtbl.create 256 } in
  Hashtbl.replace t.blocks (key Block.genesis.Block.hash) Block.genesis;
  t

let mem t h = Hashtbl.mem t.blocks (key h)
let find t h = Hashtbl.find_opt t.blocks (key h)
let find_key t k = Hashtbl.find_opt t.blocks k

let insert t (b : Block.t) =
  if mem t b.Block.hash then false
  else begin
    Hashtbl.replace t.blocks (key b.Block.hash) b;
    let siblings =
      Option.value ~default:[] (Hashtbl.find_opt t.by_parent (key b.Block.parent))
    in
    Hashtbl.replace t.by_parent (key b.Block.parent) (b :: siblings);
    true
  end

let parent t (b : Block.t) =
  if Block.is_genesis b then None else find t b.Block.parent

let children t h =
  Option.value ~default:[] (Hashtbl.find_opt t.by_parent (key h))

let size t = Hashtbl.length t.blocks

let is_ancestor t ~ancestor ~of_ =
  let open Block in
  let rec walk b =
    if b.height < ancestor.height then `No
    else if b.height = ancestor.height then
      if Hash.equal b.hash ancestor.hash then `Yes else `No
    else
      match find t b.parent with None -> `Unknown | Some p -> walk p
  in
  walk of_

let descendants t h =
  let rec gather acc hash =
    List.fold_left
      (fun acc (c : Block.t) -> gather (c :: acc) c.Block.hash)
      acc (children t hash)
  in
  gather [] h

let fold f t init = Hashtbl.fold (fun _ b acc -> f b acc) t.blocks init

let chain_to t (b : Block.t) =
  let rec walk acc (b : Block.t) =
    if Block.is_genesis b then Some (b :: acc)
    else
      match find t b.Block.parent with
      | None -> None
      | Some p -> walk (b :: acc) p
  in
  walk [] b
