open Bft_types

exception Safety_violation of string

type t = {
  mutable chain : Block.t array;  (* chain.(h) is the block at height h *)
  mutable len : int;  (* filled prefix: heights 0 .. len-1 *)
  on_commit : Block.t -> unit;
}

let create ?(on_commit = fun _ -> ()) () =
  let chain = Array.make 64 Block.genesis in
  { chain; len = 1; on_commit }

let ensure_capacity t h =
  if h >= Array.length t.chain then begin
    let bigger = Array.make (max (h + 1) (2 * Array.length t.chain)) Block.genesis in
    Array.blit t.chain 0 bigger 0 t.len;
    t.chain <- bigger
  end

let last t = t.chain.(t.len - 1)
let length t = t.len - 1

let is_committed t hash =
  let rec scan h =
    h >= 0 && (Hash.equal t.chain.(h).Block.hash hash || scan (h - 1))
  in
  scan (t.len - 1)

(* Commit the uncommitted suffix ending at [cur], oldest first: walk
   down to the committed prefix, checking that the walk meets it at the
   committed hash, then append while the walk unwinds, so a missing
   ancestor or a fork raises before anything is appended.  Top-level
   rather than local to [commit], as [connects] is: a local walk would be
   a closure per call. *)
let rec append_suffix t store (b : Block.t) (cur : Block.t) =
  let open Block in
  if cur.height < t.len then begin
    if not (Hash.equal t.chain.(cur.height).hash cur.hash) then
      raise
        (Safety_violation
           (Format.asprintf "commit of %a forks from committed %a at height %d"
              Block.pp b Block.pp t.chain.(cur.height) cur.height));
    ensure_capacity t b.height
  end
  else begin
    (match Block_store.find store cur.parent with
    | p -> append_suffix t store b p
    | exception Not_found ->
        invalid_arg
          (Format.asprintf "Commit_log.commit: missing ancestor of %a" Block.pp
             cur));
    t.chain.(cur.height) <- cur;
    t.len <- cur.height + 1;
    t.on_commit cur
  end

let commit t store (b : Block.t) =
  let open Block in
  if b.height < t.len then begin
    (* Already covered: must agree with what we committed at that height. *)
    if not (Hash.equal t.chain.(b.height).hash b.hash) then
      raise
        (Safety_violation
           (Format.asprintf "conflicting commit at height %d: %a vs %a"
              b.height Block.pp t.chain.(b.height) Block.pp b))
  end
  else append_suffix t store b b

(* Walk parent links only down to the committed prefix.  Meeting it at the
   committed hash settles the question: every committed block's ancestors
   are in the store (the store never forgets and [commit] found each one
   there).  Meeting it at another hash is a fork; only then does the whole
   chain need walking, so a fork keeps its old outcome (deferred on a gap,
   [Safety_violation] from [commit] otherwise). *)
let rec connects t store (cur : Block.t) =
  if cur.Block.height < t.len then
    Hash.equal t.chain.(cur.Block.height).Block.hash cur.Block.hash
    || Option.is_some (Block_store.chain_to store cur)
  else
    match Block_store.find store cur.Block.parent with
    | p -> connects t store p
    | exception Not_found -> false

let to_list t = Array.to_list (Array.sub t.chain 0 t.len)
