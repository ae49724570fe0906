(* [count] caches [Signer_set.count signers]: the per-vote path must not
   pay a popcount sweep per contribution. *)
type 'k entry = {
  signers : Signer_set.t;
  mutable count : int;
  mutable complete : bool;
}

type outcome =
  | Added of int
  | Duplicate
  | Threshold_reached of Signer_set.t
  | Already_complete

type 'k t = {
  table : ('k, 'k entry) Hashtbl.t;
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
      let e = { signers = Signer_set.create ~n:t.n; count = 0; complete = false } in
      Hashtbl.add t.table key e;
      e

let add t key ~signer =
  let e = entry t key in
  if not (Signer_set.add e.signers signer) then Duplicate
  else if e.complete then Already_complete
  else begin
    let c = e.count + 1 in
    e.count <- c;
    if c >= t.threshold then begin
      e.complete <- true;
      Threshold_reached e.signers
    end
    else Array.unsafe_get t.added c
  end

let fold f t init =
  Hashtbl.fold
    (fun key e acc -> f key ~signers:e.signers ~complete:e.complete acc)
    t.table init
