(* One int array per key: slot 0 counts contributions up to the threshold
   (the key is complete once it reaches it; later signers are recorded but
   not counted), slots 1.. hold the signer bits, 32 per word as in
   {!Signer_set}.  One block per key, and the per-vote path reads the
   cached count instead of a popcount sweep. *)
type outcome = Added of int | Duplicate | Threshold_reached | Already_complete

type 'k t = {
  table : ('k, int array) Hashtbl.t;
  n : int;
  threshold : int;
  added : outcome array;
}

(* [added.(c)] is [Added c], built once and shared by every accumulator
   with a threshold up to its length: [add] runs once per received vote and
   must not allocate its outcome, and a node holds several accumulators,
   so per-accumulator tables would put their cost on every set-up.  The
   table only grows: a domain swaps in its longer copy only if no other
   domain changed the table since it was read, and otherwise retries
   against the new one.  Each accumulator keeps the table it was created
   with, which holds at least [threshold] entries. *)
let shared_added = Atomic.make [||]

let rec added_upto threshold =
  let a = Atomic.get shared_added in
  if Array.length a >= threshold then a
  else begin
    let b = Array.init threshold (fun c -> Added c) in
    if Atomic.compare_and_set shared_added a b then b else added_upto threshold
  end

(* 16 initial buckets: a node holds one accumulator per vote kind, and
   their combined set-up allocation stays below the single 64-bucket table
   they replaced.  The table grows with the number of keys. *)
let create ~n ~threshold =
  if threshold < 1 then invalid_arg "Accumulator.create: threshold < 1";
  { table = Hashtbl.create 16; n; threshold; added = added_upto threshold }

(* [find]/[Not_found] instead of [find_opt]: the hit path is one lookup per
   received vote and [find_opt] allocates a [Some] per hit. *)
let entry t key =
  match Hashtbl.find t.table key with
  | e -> e
  | exception Not_found ->
      let e = Array.make (1 + ((t.n + 31) lsr 5)) 0 in
      Hashtbl.add t.table key e;
      e

let add t key ~signer =
  let e = entry t key in
  if signer < 0 || signer >= t.n then
    invalid_arg "Signer_set: signer out of range";
  let w = 1 + (signer lsr 5) and bit = 1 lsl (signer land 31) in
  let old = Array.unsafe_get e w in
  if old land bit <> 0 then Duplicate
  else begin
    Array.unsafe_set e w (old lor bit);
    let c = Array.unsafe_get e 0 in
    if c >= t.threshold then Already_complete
    else begin
      Array.unsafe_set e 0 (c + 1);
      if c + 1 >= t.threshold then Threshold_reached
      else Array.unsafe_get t.added (c + 1)
    end
  end

(* High to low, so the prepends come out ascending. *)
let signers t e =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if e.(1 + (i lsr 5)) land (1 lsl (i land 31)) <> 0 then acc := i :: !acc
  done;
  !acc

let fold f t init =
  Hashtbl.fold
    (fun key e acc ->
      f key ~signers:(signers t e) ~complete:(e.(0) >= t.threshold) acc)
    t.table init
