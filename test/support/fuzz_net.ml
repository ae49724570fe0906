(* An adversarial scheduler for safety fuzzing.

   Unlike the discrete-event simulator (which models a *plausible* network),
   this net gives the adversary full power over scheduling: at every step it
   picks an arbitrary pending message to deliver, may drop or duplicate it,
   and may fire any pending timer at any moment (timers firing "too early"
   model arbitrarily wrong clock behaviour).  With [~crashes:true] it also
   crash-stops and restarts nodes at arbitrary moments (staying within the
   concurrent budget of f): a crashed node loses all volatile state and
   comes back from its WAL alone, so recovery-time double votes would
   surface here as safety violations.  Liveness is forfeit under such an
   adversary — but safety must still hold, and a cross-node height check
   enforces exactly that on every commit.

   Generic over any protocol speaking {!Moonshot.Message}, so Simple,
   Pipelined and Commit Moonshot are all fuzzable. *)

open Bft_types

type pending = { src : int; dst : int; msg : Moonshot.Message.t }

type t = {
  n : int;
  handlers : (src:int -> Moonshot.Message.t -> unit) array;
  starts : (unit -> unit) array;
  restarts : (unit -> unit) array;  (* rebuild node [i] from its WAL *)
  down : bool array;
  crashes : bool;
  mutable crash_budget : int;  (* concurrently-crashed allowance left *)
  mutable pool : pending list;
  mutable timers : (bool ref * int * (unit -> unit)) list;  (* owner-tagged *)
  rng : Bft_sim.Rng.t;
  mutable clock : float;  (* logical; advances one unit per step *)
  height_first : (int, Block.t) Hashtbl.t;  (* global safety check *)
  committed : int array;
  mutable delivered : int;
}

let check_safety t (b : Block.t) =
  match Hashtbl.find_opt t.height_first b.Block.height with
  | None -> Hashtbl.add t.height_first b.Block.height b
  | Some first ->
      if not (Block.equal first b) then
        raise
          (Bft_chain.Commit_log.Safety_violation
             (Format.asprintf "fuzz: conflicting commits at height %d"
                b.Block.height))

let create (type node)
    (module P : Bft_types.Protocol_intf.S
      with type msg = Moonshot.Message.t
       and type node = node) ?(equivocator = false) ?(crashes = false) ~n
    ~seed () =
  let t =
    {
      n;
      handlers = Array.make n (fun ~src:_ _ -> ());
      starts = Array.make n (fun () -> ());
      restarts = Array.make n (fun () -> ());
      down = Array.make n false;
      crashes;
      crash_budget = (if crashes then ((n - 1) / 3) - (if equivocator then 1 else 0) else 0);
      pool = [];
      timers = [];
      rng = Bft_sim.Rng.create seed;
      clock = 0.;
      height_first = Hashtbl.create 64;
      committed = Array.make n 0;
      delivered = 0;
    }
  in
  let module H = Bft_net.Node_host.Make (P) in
  let policy =
    {
      Bft_net.Node_host.n;
      delta = 10.;
      leader_of = (fun view -> (view - 1) mod n);
      payload_bytes = 0;
      ingest = None;
      trace = None;
      faults = None;
    }
  in
  let io id =
    {
      Bft_net.Node_host.now = (fun () -> t.clock);
      send =
        (fun dst msg ->
          if dst = id then t.handlers.(id) ~src:id msg
          else t.pool <- { src = id; dst; msg } :: t.pool);
      multicast =
        (fun msg ->
          t.handlers.(id) ~src:id msg;
          for dst = 0 to n - 1 do
            if dst <> id then t.pool <- { src = id; dst; msg } :: t.pool
          done);
      set_timer =
        (fun _delay f ->
          let cancelled = ref false in
          t.timers <- (cancelled, id, f) :: t.timers;
          fun () -> cancelled := true);
    }
  in
  for id = 0 to n - 1 do
    let h =
      H.create policy ~id (io id) ~wal:(P.wal_create ())
        ~equivocate:(equivocator && id = 0)
        ~on_spawn:(fun _ handler -> t.handlers.(id) <- handler)
        ~on_commit:(fun b ->
          check_safety t b;
          t.committed.(id) <- t.committed.(id) + 1)
    in
    H.spawn h;
    t.starts.(id) <- (fun () -> H.start h);
    t.restarts.(id) <-
      (fun () ->
        t.down.(id) <- false;
        H.recover h)
  done;
  t

let start t = Array.iter (fun f -> f ()) t.starts

let deliver t { src; dst; msg } =
  if not t.down.(dst) then begin
    t.delivered <- t.delivered + 1;
    t.handlers.(dst) ~src msg
  end

let take_nth xs n =
  let rec go acc i = function
    | [] -> invalid_arg "take_nth"
    | x :: rest ->
        if i = n then (x, List.rev_append acc rest) else go (x :: acc) (i + 1) rest
  in
  go [] 0 xs

let crash t id =
  t.down.(id) <- true;
  t.handlers.(id) <- (fun ~src:_ _ -> ());
  (* Quench the crashed incarnation's timers: its closures must never run. *)
  t.timers <- List.filter (fun (_, owner, _) -> owner <> id) t.timers

(* Crash/restart layer: arbitrary moments, but never more than the budget
   of concurrently-crashed nodes (the equivocator counts against f). *)
let crash_step t =
  (if t.crash_budget > 0 && Bft_sim.Rng.int t.rng 25 = 0 then
     let ups =
       List.filter
         (fun i -> (not t.down.(i)) && i > 0)
         (List.init t.n (fun i -> i))
     in
     match ups with
     | [] -> ()
     | _ ->
         crash t (List.nth ups (Bft_sim.Rng.int t.rng (List.length ups)));
         t.crash_budget <- t.crash_budget - 1);
  let downs = List.filter (fun i -> t.down.(i)) (List.init t.n (fun i -> i)) in
  if downs <> [] && Bft_sim.Rng.int t.rng 15 = 0 then begin
    t.restarts.(List.nth downs (Bft_sim.Rng.int t.rng (List.length downs))) ();
    t.crash_budget <- t.crash_budget + 1
  end

(* One adversarial step: deliver / drop / duplicate a random pending
   message, or fire a random live timer. *)
let step t =
  t.clock <- t.clock +. 1.;
  if t.crashes then crash_step t;
  let live_timers = List.filter (fun (c, _, _) -> not !c) t.timers in
  let fire_timer () =
    match live_timers with
    | [] -> ()
    | _ ->
        let (cancelled, _, f), _ =
          take_nth live_timers (Bft_sim.Rng.int t.rng (List.length live_timers))
        in
        cancelled := true;
        t.timers <- List.filter (fun (c, _, _) -> not !c) t.timers;
        f ()
  in
  match t.pool with
  | [] -> fire_timer ()
  | pool ->
      if live_timers <> [] && Bft_sim.Rng.int t.rng 10 = 0 then fire_timer ()
      else begin
        let p, rest = take_nth pool (Bft_sim.Rng.int t.rng (List.length pool)) in
        match Bft_sim.Rng.int t.rng 10 with
        | 0 -> t.pool <- rest  (* drop *)
        | 1 ->
            (* duplicate: deliver now, keep a copy in the pool *)
            deliver t p
        | _ ->
            t.pool <- rest;
            deliver t p
      end

let run t ~steps =
  start t;
  for _ = 1 to steps do
    step t
  done

let delivered t = t.delivered
let committed t i = t.committed.(i)
let max_committed t = Array.fold_left max 0 t.committed
