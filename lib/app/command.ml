open Bft_types

type t =
  | Set of { key : string; value : int }
  | Incr of { key : string; by : int }
  | Del of { key : string }

(* A cheap deterministic stream: splitmix-style mixing of (payload id,
   command index). *)
let mix a b =
  let h = Hash.of_fields [ Int64.of_int a; Int64.of_int b ] in
  Hash.to_int h land max_int

let key_space = 256

let command_at ~payload_id index =
  let r = mix payload_id index in
  let key = Printf.sprintf "k%03d" (r mod key_space) in
  match r / key_space mod 4 with
  | 0 | 1 -> Set { key; value = r / 1024 mod 1_000_000 }
  | 2 -> Incr { key; by = (r / 1024 mod 100) + 1 }
  | _ -> Del { key }

let of_payload (p : Payload.t) =
  List.init (Payload.item_count p) (command_at ~payload_id:p.Payload.id)

let equal a b =
  match (a, b) with
  | Set { key = k1; value = v1 }, Set { key = k2; value = v2 } ->
      String.equal k1 k2 && v1 = v2
  | Incr { key = k1; by = b1 }, Incr { key = k2; by = b2 } ->
      String.equal k1 k2 && b1 = b2
  | Del { key = k1 }, Del { key = k2 } -> String.equal k1 k2
  | (Set _ | Incr _ | Del _), _ -> false

let pp ppf = function
  | Set { key; value } -> Format.fprintf ppf "set %s = %d" key value
  | Incr { key; by } -> Format.fprintf ppf "incr %s by %d" key by
  | Del { key } -> Format.fprintf ppf "del %s" key
