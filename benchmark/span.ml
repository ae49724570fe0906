(* Outside-in span recorder for the traced run.

   Every span is one call the benchmark made into a layer's public function
   (see {!Timed}): a handler, a timer callback, an [Env] callback, the CPU
   model or a codec.  Spans nest on a per-thread stack; a span's self time is
   its duration minus the durations of the spans nested in it.  Aggregates
   (count and self time) are kept per slot and kind, where slot [i < n] is
   node [i] and slot [n] is the engine: context-free calls made outside any
   node's span, such as the simulator pricing a delivery with [cpu_cost].

   Under the socket substrate's threads mode every validator has its own
   executor thread, and the executors interleave.  One shared stack would
   charge one node's nested time to another node's span (negative self
   times), so each thread gets its own context, and context-free calls
   (decode, WAL snapshots) go to the node that thread serves. *)

type kind =
  | Proposal
  | Vote
  | Timeout
  | Other
  | Start
  | Timer
  | Send
  | Multicast
  | Set_timer
  | Make_payload
  | On_commit
  | On_propose
  | Cpu_cost
  | Encode
  | Decode
  | Wal_encode

let index = function
  | Proposal -> 0
  | Vote -> 1
  | Timeout -> 2
  | Other -> 3
  | Start -> 4
  | Timer -> 5
  | Send -> 6
  | Multicast -> 7
  | Set_timer -> 8
  | Make_payload -> 9
  | On_commit -> 10
  | On_propose -> 11
  | Cpu_cost -> 12
  | Encode -> 13
  | Decode -> 14
  | Wal_encode -> 15

let nkinds = index Wal_encode + 1

let name = function
  | Proposal -> "handle.proposal"
  | Vote -> "handle.vote"
  | Timeout -> "handle.timeout"
  | Other -> "handle.other"
  | Start -> "start"
  | Timer -> "timer"
  | Send -> "env.send"
  | Multicast -> "env.multicast"
  | Set_timer -> "env.set_timer"
  | Make_payload -> "env.make_payload"
  | On_commit -> "env.on_commit"
  | On_propose -> "env.on_propose"
  | Cpu_cost -> "cpu_cost"
  | Encode -> "encode_msg"
  | Decode -> "decode_msg"
  | Wal_encode -> "wal_encode"

(* Spans of these kinds are the handler spans the raw-span cap counts. *)
let is_handler k = index k <= index Timer

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Raw spans are kept for the first [raw_cap] handler spans and everything
   nested in them. *)
let raw_cap = 10_000

type raw = {
  r_kind : kind;
  r_slot : int;
  r_start : int;
  r_end : int;
  r_id : int;
  r_parent : int;
}

let max_depth = 64

type ctx = {
  mutable home : int;
  mutable depth : int;
  mutable recording : bool;
  st_kind : kind array;
  st_slot : int array;
  st_start : int array;
  st_child : int array;
  st_id : int array;
}

type t = {
  n : int;
  threaded : bool;
  t0 : int;
  count : int array array;  (* slot -> kind -> calls *)
  self : int array array;  (* slot -> kind -> ns *)
  top : int array;  (* slot -> ns inside depth-0 spans *)
  raw : raw list array;  (* slot -> newest first *)
  handlers_recorded : int Atomic.t;
  next_id : int Atomic.t;
}

let make ~n ~threaded =
  let grid () = Array.init (n + 1) (fun _ -> Array.make nkinds 0) in
  {
    n;
    threaded;
    t0 = now_ns ();
    count = grid ();
    self = grid ();
    top = Array.make (n + 1) 0;
    raw = Array.make (n + 1) [];
    handlers_recorded = Atomic.make 0;
    next_id = Atomic.make 1;
  }

(* The recorder the {!Timed} wrappers feed; [None] outside a traced run. *)
let current : t option ref = ref None

let new_ctx home =
  {
    home;
    depth = 0;
    recording = false;
    st_kind = Array.make max_depth Proposal;
    st_slot = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
  }

let main_ctx = new_ctx 0

(* Per-thread contexts, indexed by thread id.  Only the registering thread
   ever reads its own entry; growth copies the array under the lock, so a
   stale array seen by another thread still holds that thread's entry. *)
let registry : ctx option array ref = ref [||]
let registry_lock = Mutex.create ()

let thread_ctx t =
  let id = Thread.id (Thread.self ()) in
  let tbl = !registry in
  match if id < Array.length tbl then tbl.(id) else None with
  | Some c -> c
  | None ->
      Mutex.protect registry_lock (fun () ->
          let tbl = !registry in
          let tbl =
            if id < Array.length tbl then tbl
            else begin
              let bigger = Array.make (max (id + 1) (2 * Array.length tbl)) None in
              Array.blit tbl 0 bigger 0 (Array.length tbl);
              registry := bigger;
              bigger
            end
          in
          let c = new_ctx t.n in
          tbl.(id) <- Some c;
          c)

let ctx t = if t.threaded then thread_ctx t else main_ctx

let start ~n ~threaded =
  let t = make ~n ~threaded in
  main_ctx.home <- n;
  main_ctx.depth <- 0;
  Mutex.protect registry_lock (fun () -> registry := [||]);
  current := Some t;
  t

let stop () = current := None

(* A socket executor thread serves one node: its context-free calls are
   charged to that node. *)
let bind_thread node =
  match !current with
  | Some t when t.threaded -> (ctx t).home <- node
  | Some _ | None -> ()

let leave t c =
  let t1 = now_ns () in
  let d = c.depth - 1 in
  c.depth <- d;
  let kind = c.st_kind.(d) and slot = c.st_slot.(d) in
  let dur = t1 - c.st_start.(d) in
  let self = dur - c.st_child.(d) in
  if d > 0 then c.st_child.(d - 1) <- c.st_child.(d - 1) + dur
  else t.top.(slot) <- t.top.(slot) + dur;
  let k = index kind in
  t.count.(slot).(k) <- t.count.(slot).(k) + 1;
  t.self.(slot).(k) <- t.self.(slot).(k) + self;
  if c.recording then begin
    t.raw.(slot) <-
      {
        r_kind = kind;
        r_slot = slot;
        r_start = c.st_start.(d) - t.t0;
        r_end = t1 - t.t0;
        r_id = c.st_id.(d);
        r_parent = (if d > 0 then c.st_id.(d - 1) else 0);
      }
      :: t.raw.(slot);
    if d = 0 then c.recording <- false
  end

(* [run kind ~slot f] times [f ()] as a span; [slot < 0] means the call
   carries no node, so it is charged to the enclosing span's node, or to the
   thread's own node, or to the engine. *)
let run kind ~slot f =
  match !current with
  | None -> f ()
  | Some t ->
      let c = ctx t in
      let d = c.depth in
      if d >= max_depth then f ()
      else begin
        let slot =
          if slot >= 0 then slot else if d > 0 then c.st_slot.(d - 1) else c.home
        in
        if d = 0 then
          c.recording <-
            is_handler kind
            && Atomic.fetch_and_add t.handlers_recorded 1 < raw_cap;
        c.st_kind.(d) <- kind;
        c.st_slot.(d) <- slot;
        c.st_child.(d) <- 0;
        c.st_id.(d) <-
          (if c.recording then Atomic.fetch_and_add t.next_id 1 else 0);
        c.depth <- d + 1;
        c.st_start.(d) <- now_ns ();
        match f () with
        | v ->
            leave t c;
            v
        | exception e ->
            leave t c;
            raise e
      end

(* {2 Reading the aggregates} *)

let sum_slots (a : int array array) kind =
  let k = index kind in
  Array.fold_left (fun acc row -> acc + row.(k)) 0 a

let calls t kind = sum_slots t.count kind
let self_ns t kind = sum_slots t.self kind

(* Mean self time per call, ns; 0 when the kind never ran. *)
let mean_self_ns t kind =
  let c = calls t kind in
  if c = 0 then 0. else float_of_int (self_ns t kind) /. float_of_int c

let top_ns t = Array.fold_left ( + ) 0 t.top

(* The smallest self time summed per (slot, kind): negative means the
   per-thread bookkeeping charged nested time to the wrong span. *)
let min_self t =
  Array.fold_left
    (fun acc row -> Array.fold_left min acc row)
    max_int t.self

let raw_to_jsonl t oc =
  Array.iter
    (fun spans ->
      List.iter
        (fun r ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("name", Json.Str (name r.r_kind));
                    ("node", Json.Num (float_of_int (if r.r_slot = t.n then -1 else r.r_slot)));
                    ("start_ns", Json.Num (float_of_int r.r_start));
                    ("end_ns", Json.Num (float_of_int r.r_end));
                    ("id", Json.Num (float_of_int r.r_id));
                    ("parent", Json.Num (float_of_int r.r_parent));
                  ]));
          output_char oc '\n')
        (List.rev spans))
    t.raw
