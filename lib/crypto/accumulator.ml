(* One int array per key: slot 0 counts its contributions (the key is
   complete once the count reaches the threshold), slots 1.. hold the
   signer bits, 32 per word as in {!Signer_set}.  One block per key, and
   the per-vote path reads the cached count instead of a popcount sweep.
   A key all [n] signers filled is retired: its entry becomes the shared
   full array of [n] (count [n], every bit set, never written, since every
   later contribution is a duplicate) and its own array goes onto the
   free stack for the next new key. *)
type outcome = Added of int | Duplicate | Threshold_reached | Already_complete

type 'k t = {
  table : ('k, int array) Hashtbl.t;
  n : int;
  threshold : int;
  added : outcome array;
  full : int array;
  mutable free : int array array;  (* [free.(0 .. free_len - 1)] *)
  mutable free_len : int;
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

let words n = 1 + ((n + 31) lsr 5)

(* The full arrays, one per [n], shared the same way: an accumulator's
   set-up looks its [n] up and builds nothing once a node of that size
   exists. *)
let shared_full = Atomic.make []

let rec full_of n =
  let l = Atomic.get shared_full in
  match List.assoc n l with
  | e -> e
  | exception Not_found ->
      let e = Array.make (words n) 0 in
      e.(0) <- n;
      for i = 0 to n - 1 do
        let w = 1 + (i lsr 5) in
        e.(w) <- e.(w) lor (1 lsl (i land 31))
      done;
      if Atomic.compare_and_set shared_full l ((n, e) :: l) then e
      else full_of n

(* 16 initial buckets: a node holds one accumulator per vote kind, and
   their combined set-up allocation stays below the single 64-bucket table
   they replaced.  The table grows with the number of keys. *)
let create ~n ~threshold =
  if threshold < 1 then invalid_arg "Accumulator.create: threshold < 1";
  {
    table = Hashtbl.create 16;
    n;
    threshold;
    added = added_upto threshold;
    full = full_of n;
    free = [||];
    free_len = 0;
  }

(* A retired key's array, zeroed, or a fresh one. *)
let fresh t =
  if t.free_len = 0 then Array.make (words t.n) 0
  else begin
    let i = t.free_len - 1 in
    t.free_len <- i;
    let e = Array.unsafe_get t.free i in
    Array.fill e 0 (Array.length e) 0;
    e
  end

(* [find]/[Not_found] instead of [find_opt]: the hit path is one lookup per
   received vote and [find_opt] allocates a [Some] per hit. *)
let entry t key =
  match Hashtbl.find t.table key with
  | e -> e
  | exception Not_found ->
      let e = fresh t in
      Hashtbl.add t.table key e;
      e

(* [replace] overwrites the key's cell in place.  The free stack holds the
   retired arrays no new key has taken yet, and doubles when full. *)
let retire t key e =
  Hashtbl.replace t.table key t.full;
  let len = t.free_len in
  if len = Array.length t.free then begin
    let free = Array.make (max 8 (2 * len)) e in
    Array.blit t.free 0 free 0 len;
    t.free <- free
  end;
  Array.unsafe_set t.free len e;
  t.free_len <- len + 1

let add t key ~signer =
  let e = entry t key in
  if signer < 0 || signer >= t.n then
    invalid_arg "Signer_set: signer out of range";
  let w = 1 + (signer lsr 5) and bit = 1 lsl (signer land 31) in
  let old = Array.unsafe_get e w in
  if old land bit <> 0 then Duplicate
  else begin
    Array.unsafe_set e w (old lor bit);
    let c = Array.unsafe_get e 0 + 1 in
    Array.unsafe_set e 0 c;
    if c = t.n then retire t key e;
    if c > t.threshold then Already_complete
    else if c = t.threshold then Threshold_reached
    else Array.unsafe_get t.added c
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
