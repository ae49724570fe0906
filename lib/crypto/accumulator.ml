(* A tally is one int array: slot 0 counts its contributions, slots 1..
   hold the signer bits, 32 per word as in {!Signer_set}.  The open
   tallies live in an open-addressed table of parallel arrays ([keys.(i)]
   names [tallies.(i)]; a vacant slot holds [vacant]), probed linearly and
   kept at most half full; a removal shifts the following run back instead
   of leaving a tombstone.  A tally that reaches the threshold leaves the
   table at once: its array goes onto the free stack and its key into the
   ring of recent completions, [ring.(c mod ring_size)] for the [c]-th. *)
type outcome = Added of int | Duplicate | Threshold_reached | Already_complete

let ring_size = 8
let vacant : int array = [||]

type t = {
  n : int;
  threshold : int;
  added : outcome array;
  mutable keys : int array;  (* [[||]] until the first contribution *)
  mutable tallies : int array array;
  mutable size : int;  (* open tallies *)
  mutable free : int array array;  (* [free.(0 .. free_len - 1)] *)
  mutable free_len : int;
  mutable ring : int array;  (* [[||]] until the first completion *)
  mutable completed : int;
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

let create ~n ~threshold =
  if threshold < 1 then invalid_arg "Accumulator.create: threshold < 1";
  {
    n;
    threshold;
    added = added_upto threshold;
    keys = [||];
    tallies = [||];
    size = 0;
    free = [||];
    free_len = 0;
    ring = [||];
    completed = 0;
  }

(* The home slot: block-hash keys are already well mixed, but small keys
   in a row would otherwise fill one run. *)
let home mask key =
  let h = key * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land mask

(* The slot holding [key], or the vacant slot where it would go. *)
let rec probe keys tallies mask (key : int) i =
  if
    Array.unsafe_get tallies i == vacant || Array.unsafe_get keys i = key
  then i
  else probe keys tallies mask key ((i + 1) land mask)

let place t key e =
  let mask = Array.length t.keys - 1 in
  let i = probe t.keys t.tallies mask key (home mask key) in
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.tallies i e

let resize t capacity =
  let keys = t.keys and tallies = t.tallies in
  t.keys <- Array.make capacity 0;
  t.tallies <- Array.make capacity vacant;
  for i = 0 to Array.length tallies - 1 do
    let e = Array.unsafe_get tallies i in
    if e != vacant then place t (Array.unsafe_get keys i) e
  done

(* Empty slot [i], then move back every entry of the run after it whose
   home is not cyclically in [(i, j]], so that no probe stops early. *)
let remove t i =
  let keys = t.keys and tallies = t.tallies in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while Array.unsafe_get tallies !j != vacant do
    let h = home mask (Array.unsafe_get keys !j) in
    let i = !hole and j' = !j in
    if (if i <= j' then h <= i || h > j' else h <= i && h > j') then begin
      Array.unsafe_set keys i (Array.unsafe_get keys j');
      Array.unsafe_set tallies i (Array.unsafe_get tallies j');
      hole := j'
    end;
    j := (j' + 1) land mask
  done;
  Array.unsafe_set tallies !hole vacant;
  t.size <- t.size - 1

let in_ring t key =
  let ring = t.ring in
  let len = Stdlib.min t.completed ring_size in
  let k = ref 0 in
  while !k < len && Array.unsafe_get ring !k <> key do
    incr k
  done;
  !k < len

(* A closed tally's array, zeroed, or a fresh one. *)
let fresh t =
  if t.free_len = 0 then Array.make (1 + ((t.n + 31) lsr 5)) 0
  else begin
    let i = t.free_len - 1 in
    t.free_len <- i;
    let e = Array.unsafe_get t.free i in
    Array.fill e 0 (Array.length e) 0;
    e
  end

let close t i e =
  if Array.length t.ring = 0 then t.ring <- Array.make ring_size 0;
  Array.unsafe_set t.ring (t.completed mod ring_size) (Array.unsafe_get t.keys i);
  t.completed <- t.completed + 1;
  remove t i;
  let len = t.free_len in
  if len = Array.length t.free then begin
    let free = Array.make (Stdlib.max 8 (2 * len)) e in
    Array.blit t.free 0 free 0 len;
    t.free <- free
  end;
  Array.unsafe_set t.free len e;
  t.free_len <- len + 1

let count t i e signer =
  let w = 1 + (signer lsr 5) and bit = 1 lsl (signer land 31) in
  let old = Array.unsafe_get e w in
  if old land bit <> 0 then Duplicate
  else begin
    Array.unsafe_set e w (old lor bit);
    let c = Array.unsafe_get e 0 + 1 in
    Array.unsafe_set e 0 c;
    if c = t.threshold then begin
      close t i e;
      Threshold_reached
    end
    else Array.unsafe_get t.added c
  end

let add t key ~signer =
  if signer < 0 || signer >= t.n then
    invalid_arg "Signer_set: signer out of range";
  if Array.length t.keys = 0 then resize t 8;
  let mask = Array.length t.keys - 1 in
  let i = probe t.keys t.tallies mask key (home mask key) in
  let e = Array.unsafe_get t.tallies i in
  if e != vacant then count t i e signer
  else if in_ring t key then Already_complete
  else begin
    let e = fresh t in
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.tallies i e;
    t.size <- t.size + 1;
    let outcome = count t i e signer in
    if 2 * t.size > Array.length t.keys then resize t (2 * Array.length t.keys);
    outcome
  end

(* High to low, so the prepends come out ascending. *)
let signers t e =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if e.(1 + (i lsr 5)) land (1 lsl (i land 31)) <> 0 then acc := i :: !acc
  done;
  !acc

let fold f t init =
  let acc = ref init in
  Array.iteri
    (fun i e ->
      if e != vacant then
        acc := f t.keys.(i) ~signers:(signers t e) ~complete:false !acc)
    t.tallies;
  for k = 0 to Stdlib.min t.completed ring_size - 1 do
    acc := f t.ring.(k) ~signers:[] ~complete:true !acc
  done;
  !acc
