open Bft_types

type t = { kind : Vote_kind.t; view : int; block : Block.t; signers : int }

let make ~kind ~view ~block ~signers =
  if view <> block.Block.view then
    invalid_arg "Cert.make: view must match the certified block's view";
  if signers < 1 then invalid_arg "Cert.make: empty certificate";
  { kind; view; block; signers }

let genesis =
  { kind = Vote_kind.Normal; view = 0; block = Block.genesis; signers = 1 }

let rank_geq a b = a.view >= b.view
let rank_gt a b = a.view > b.view

let equal_id a b =
  a.view = b.view
  && Vote_kind.equal a.kind b.kind
  && Block.equal a.block b.block

(* Signers are deliberately excluded: digest equality must coincide with
   {!equal_id}, the relation every dedup site uses, or the model checker
   would distinguish states that the protocol itself cannot tell apart. *)
let digest t =
  Hash.of_fields
    [
      0x43L;
      Int64.of_int (Vote_kind.to_tag t.kind);
      Int64.of_int t.view;
      Hash.to_int64 t.block.Block.hash;
    ]

let certifies_parent_of t b = Block.extends_hash b ~parent_hash:t.block.Block.hash
let wire_size t = Wire_size.certificate ~signers:t.signers

let pp ppf t =
  Format.fprintf ppf "C_%d^%a(%a)" t.view Vote_kind.pp t.kind Block.pp t.block
