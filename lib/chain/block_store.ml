open Bft_types

(* Keyed by [Hash.to_int]. *)
type t = (int, Block.t) Hashtbl.t

let key h = Hash.to_int h

let create () =
  let t = Hashtbl.create 256 in
  Hashtbl.replace t (key Block.genesis.Block.hash) Block.genesis;
  t

let mem t h = Hashtbl.mem t (key h)
let find t h = Hashtbl.find t (key h)
let find_key t k = Hashtbl.find_opt t k

let insert t (b : Block.t) =
  if mem t b.Block.hash then false
  else begin
    Hashtbl.add t (key b.Block.hash) b;
    true
  end

let size t = Hashtbl.length t

(* Top-level rather than local to [is_ancestor]: a local walk would be a
   closure per call. *)
let rec walk_to t (ancestor : Block.t) (b : Block.t) =
  let open Block in
  if b.height < ancestor.height then `No
  else if b.height = ancestor.height then
    if Hash.equal b.hash ancestor.hash then `Yes else `No
  else
    match find t b.parent with
    | p -> walk_to t ancestor p
    | exception Not_found -> `Unknown

let is_ancestor t ~ancestor ~of_ = walk_to t ancestor of_

let fold f t init = Hashtbl.fold (fun _ b acc -> f b acc) t init

let chain_to t (b : Block.t) =
  let rec walk acc (b : Block.t) =
    if Block.is_genesis b then Some (b :: acc)
    else
      match find t b.Block.parent with
      | p -> walk (b :: acc) p
      | exception Not_found -> None
  in
  walk [] b
