open Bft_types
module Engine = Bft_sim.Engine
module Trace = Bft_obs.Trace

type config = {
  n : int;
  view_bound : int;
  max_depth : int;
  timer_budget : int;
  reorder_window : int;
  equivocators : int list;
  faults : Mc_schedule.step list;
  symmetry : bool;
}

(* The logical [delta] of every world: only in-node time heuristics read
   it, so one value serves every exploration.  Blocks carry no payload. *)
let delta = 10.

let config ?(max_depth = 128) ?(timer_budget = 4) ?(reorder_window = 1)
    ?(equivocators = []) ?(faults = []) ?(symmetry = false) ~n ~view_bound () =
  if n < 1 then invalid_arg "Checker.config: n < 1";
  if view_bound < 1 then invalid_arg "Checker.config: view_bound < 1";
  if max_depth < 1 then invalid_arg "Checker.config: max_depth < 1";
  if timer_budget < 0 then invalid_arg "Checker.config: timer_budget < 0";
  if reorder_window < 1 then invalid_arg "Checker.config: reorder_window < 1";
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Checker.config: equivocator out of range")
    equivocators;
  { n; view_bound; max_depth; timer_budget; reorder_window; equivocators; faults; symmetry }

(* Nodes a schedule names are not interchangeable with anyone. *)
let fault_fixed steps =
  List.concat_map
    (function
      | Mc_schedule.Crash i | Mc_schedule.Recover i -> [ i ]
      | Mc_schedule.Partition_on groups -> List.concat groups
      | Mc_schedule.Partition_off -> [])
    steps

(* {2 Coverage-guided schedule search} *)

type search_config = {
  s_seed : int;
  s_rounds : int;
  s_population : int;
  s_mutants : int;
  s_walks : int;  (** swarm walks per candidate evaluation *)
  s_depth : int;  (** step cap per walk *)
  s_fault_budget : int;  (** [f] for mutation validity *)
}

let search_config ?(rounds = 24) ?(population = 8) ?(mutants = 12)
    ?(walks = 32) ?(depth = 96) ?(fault_budget = 1) ~seed () =
  if rounds < 0 then invalid_arg "Checker.search_config: rounds < 0";
  if population < 1 then invalid_arg "Checker.search_config: population < 1";
  if mutants < 1 then invalid_arg "Checker.search_config: mutants < 1";
  if walks < 1 then invalid_arg "Checker.search_config: walks < 1";
  if depth < 1 then invalid_arg "Checker.search_config: depth < 1";
  {
    s_seed = seed;
    s_rounds = rounds;
    s_population = population;
    s_mutants = mutants;
    s_walks = walks;
    s_depth = depth;
    s_fault_budget = fault_budget;
  }

module Make (P : Protocol_intf.S) = struct
  module H = Bft_net.Node_host.Make (P)

  (* The protocol nodes are mutable and unclonable, so exploration is
     stateless: every frontier path is replayed from a fresh world.  A world
     owns the engine (capture hook installed), the nodes, their WALs, and
     the checker's own bookkeeping — the message pool, captured timers, the
     fault cursor and the invariant tables. *)

  type msg_entry = {
    e_src : int;
    e_dst : int;
    e_digest : int64;
    e_seq : int;  (** global capture order — ranks a destination's arrivals *)
    e_ev : P.msg Engine.pending;
  }

  type timer_entry = {
    t_owner : int;
    t_idx : int;  (** per-owner capture sequence — deterministic per path *)
    t_ev : P.msg Engine.pending;
    mutable t_fired : bool;
  }

  type world = {
    cfg : config;
    engine : P.msg Engine.t;
    nodes : P.node option array;  (** [None] while crashed *)
    wals : P.wal array;
    channels : msg_entry Queue.t array;
        (** [dst * n + src]: FIFO per ordered node pair.  Only each
            channel's head is deliverable — delivery orders are explored
            exhaustively {e across} channels, in-order {e within} one.
            Identical undelivered copies merge (a retransmission of
            already-delivered content enqueues again). *)
    mutable timers : timer_entry list;
    timer_seq : int array;
    sync_q : P.msg Engine.pending Queue.t;
        (** self-deliveries and thunks — run synchronously, FIFO *)
    mutable partition : int list list option;
    mutable fault_idx : int;
    timers_fired : int array;  (** per node, reset at each fault step *)
    mutable steps : int;  (** actions executed along this path *)
    mutable capture_seq : int;
    commits : (int, int64) Hashtbl.t;  (** height -> block hash, across all nodes *)
    mutable commits_total : int;
    lock_floor : int array;
    vote_slots : (int * int * int, int64) Hashtbl.t;
        (** (src, view, slot) -> digest of the first vote seen there *)
    mutable violations : (Mc_report.violation_kind * string) list;
    trace : Trace.t option;
    mutable hosts : H.t array;
  }

  let add_violation w kind detail = w.violations <- (kind, detail) :: w.violations

  let group_of groups i =
    let rec find k = function
      | [] -> -1 (* implicit extra group *)
      | g :: rest -> if List.mem i g then k else find (k + 1) rest
    in
    find 0 groups

  let cut w ~src ~dst =
    match w.partition with
    | None -> false
    | Some groups -> group_of groups src <> group_of groups dst

  (* Double-vote detection runs at capture time: every message an honest
     node hands to the network passes here, including copies the scheduler
     later chooses never to deliver. *)
  let check_vote w ~src msg =
    if not (List.mem src w.cfg.equivocators) then
      match P.vote_slot msg with
      | None -> ()
      | Some (view, slot) -> (
          let d = Hash.to_int64 (P.msg_digest msg) in
          match Hashtbl.find_opt w.vote_slots (src, view, slot) with
          | None -> Hashtbl.replace w.vote_slots (src, view, slot) d
          | Some d' when Int64.equal d d' -> ()
          | Some _ ->
              add_violation w Mc_report.Double_vote
                (Format.asprintf "node %d sent two distinct votes for (view %d, slot %d): %a"
                   src view slot P.pp_msg msg))

  let capture w ev =
    match Engine.inspect ev with
    | Engine.Pending_task -> Queue.add ev w.sync_q
    | Engine.Pending_timer { owner } ->
        let o = if owner < 0 then 0 else owner in
        let idx = w.timer_seq.(o) in
        w.timer_seq.(o) <- idx + 1;
        w.timers <- { t_owner = owner; t_idx = idx; t_ev = ev; t_fired = false } :: w.timers
    | Engine.Pending_message { src; dst; msg } ->
        check_vote w ~src msg;
        if src = dst then Queue.add ev w.sync_q
        else if cut w ~src ~dst then ()
        else
          let q = w.channels.((dst * w.cfg.n) + src) in
          let d = Hash.to_int64 (P.msg_digest msg) in
          let dup =
            Queue.fold
              (fun acc e ->
                acc
                || (Int64.equal e.e_digest d && Engine.pending_live w.engine e.e_ev))
              false q
          in
          if not dup then begin
            w.capture_seq <- w.capture_seq + 1;
            Queue.add
              { e_src = src; e_dst = dst; e_digest = d; e_seq = w.capture_seq; e_ev = ev }
              q
          end

  let record_commit w id b =
    w.commits_total <- w.commits_total + 1;
    let h = Hash.to_int64 b.Block.hash in
    match Hashtbl.find_opt w.commits b.Block.height with
    | None -> Hashtbl.replace w.commits b.Block.height h
    | Some h' when Int64.equal h h' -> ()
    | Some _ ->
        add_violation w Mc_report.Conflicting_commits
          (Format.asprintf "node %d committed %a at height %d, conflicting with an earlier commit"
             id Block.pp b b.Block.height)

  let host_of w id =
    let n = w.cfg.n in
    H.create
      {
        Bft_net.Node_host.n;
        delta;
        leader_of = (fun view -> ((view - 1) mod n + n) mod n);
        payload_bytes = 0;
        ingest = None;
        trace = w.trace;
        faults = None;
      }
      ~wal:w.wals.(id)
      ~equivocate:(List.mem id w.cfg.equivocators)
      ~on_commit:(record_commit w id)
      ~on_spawn:(fun node handler ->
        Engine.set_handler w.engine id handler;
        w.nodes.(id) <- Some node)
      ~id
      (Bft_net.Node_host.engine_io w.engine id)

  let rec drain w =
    match Queue.take_opt w.sync_q with
    | None -> ()
    | Some ev ->
        Engine.dispatch w.engine ev;
        drain w

  let make_world ?trace cfg =
    let network =
      Bft_sim.Network.make
        ~latency:(Bft_sim.Latency.Uniform { base = delta /. 2.; jitter = 0. })
        ~delta ()
    in
    let engine = Engine.create ~n:cfg.n ~network ~seed:0 ~msg_size:P.msg_size () in
    let w =
      {
        cfg;
        engine;
        nodes = Array.make cfg.n None;
        wals = Array.init cfg.n (fun _ -> P.wal_create ());
        channels = Array.init (cfg.n * cfg.n) (fun _ -> Queue.create ());
        timers = [];
        timer_seq = Array.make cfg.n 0;
        sync_q = Queue.create ();
        partition = None;
        fault_idx = 0;
        timers_fired = Array.make cfg.n 0;
        steps = 0;
        capture_seq = 0;
        commits = Hashtbl.create 17;
        commits_total = 0;
        lock_floor = Array.make cfg.n 0;
        vote_slots = Hashtbl.create 97;
        violations = [];
        trace;
        hosts = [||];
      }
    in
    Engine.set_capture engine (fun ev -> capture w ev);
    H.trace_deliveries trace engine;
    w.hosts <- Array.init cfg.n (host_of w);
    Array.iter H.spawn w.hosts;
    Array.iter H.start w.hosts;
    drain w;
    w

  (* {2 Actions} *)

  type action =
    | A_msg of msg_entry
    | A_timer of timer_entry
    | A_fault of Mc_schedule.step

  (* Stable identity for sleep sets: message keys are content-derived (path
     independent); timer keys use the per-owner capture sequence, which is
     consistent along one lineage (enough for sleep sets — a mismatch across
     lineages only costs extra exploration, never soundness). *)
  let action_key = function
    | A_msg e ->
        Hash.to_int64
          (Hash.of_fields
             [ 1L; Int64.of_int e.e_dst; Int64.of_int e.e_src; e.e_digest ])
    | A_timer t ->
        Hash.to_int64 (Hash.of_fields [ 2L; Int64.of_int t.t_owner; Int64.of_int t.t_idx ])
    | A_fault _ -> 3L

  (* DPOR-lite independence: two deliveries commute iff they execute at
     different nodes.  Fault steps are dependent with everything; so are
     timers — their enabledness is a function of the owner's whole inbox
     (maximal progress), which breaks the commutation argument sleep sets
     rely on, so they never enter a sleep set. *)
  let action_loc = function
    | A_msg e -> e.e_dst
    | A_timer t -> t.t_owner
    | A_fault _ -> -1

  let action_global_dep = function
    | A_fault _ | A_timer _ -> true
    | A_msg _ -> false

  let compare_action a b =
    let rank = function
      | A_msg e -> (0, e.e_dst, e.e_src, e.e_digest)
      | A_timer t -> (1, t.t_owner, t.t_idx, 0L)
      | A_fault _ -> (2, 0, 0, 0L)
    in
    compare (rank a) (rank b)

  (* Drop entries addressed to a dead incarnation from the front, then
     expose the head.  Death is deterministic along a path, so the eager
     pops keep replays bit-identical. *)
  let channel_head w q =
    let rec head () =
      match Queue.peek_opt q with
      | None -> None
      | Some e ->
          if Engine.pending_live w.engine e.e_ev then Some e
          else begin
            ignore (Queue.pop q);
            head ()
          end
    in
    head ()

  (* Deliverable messages for one destination: each channel's head, oldest
     [reorder_window] arrivals first.  The window bounds how far a newer
     message can overtake older ones (delay-bounded scheduling); within a
     channel order is FIFO regardless. *)
  let dst_window w dst =
    let heads = ref [] in
    for src = 0 to w.cfg.n - 1 do
      match channel_head w w.channels.((dst * w.cfg.n) + src) with
      | Some e -> heads := e :: !heads
      | None -> ()
    done;
    let sorted = List.sort (fun a b -> compare a.e_seq b.e_seq) !heads in
    List.filteri (fun i _ -> i < w.cfg.reorder_window) sorted

  let enabled w =
    let msgs = ref [] in
    for dst = 0 to w.cfg.n - 1 do
      List.iter (fun e -> msgs := A_msg e :: !msgs) (dst_window w dst)
    done;
    let msgs = !msgs in
    (* Maximal progress: every protocol's timers are 3-5 delta while
       deliveries complete within delta, so a timer can only fire once no
       message is deliverable anywhere — the world is genuinely stuck
       (partition, crash, silent or equivocating leader).  Timeout paths
       are explored exactly at those stuck states, under [timer_budget]. *)
    let tmrs =
      if msgs <> [] then []
      else
        List.filter_map
          (fun t ->
            if
              (not t.t_fired)
              && w.timers_fired.(t.t_owner) < w.cfg.timer_budget
              && Engine.pending_live w.engine t.t_ev
            then Some (A_timer t)
            else None)
          w.timers
    in
    (* Fault steps fire at the initial state or at quiescence points.
       Onset at t=0 is the adversary's canonical worst case, and each fault
       creates the stalls (quiescence) at which the next step — a heal, a
       recovery — becomes explorable.  Letting steps fire at {e every}
       state multiplies the space by path length per step and adds nothing:
       a partition taking effect mid-flight only changes which in-flight
       messages die, and the delivery exploration already covers every
       prefix of them having landed.  Unlike timers, faults are not
       budget-limited — the schedule itself is finite. *)
    let faults =
      if msgs <> [] && w.steps > 0 then []
      else
        match List.nth_opt w.cfg.faults w.fault_idx with
        | Some step -> [ A_fault step ]
        | None -> []
    in
    List.sort compare_action (List.rev_append msgs (tmrs @ faults))

  let apply_fault w step =
    let edge f =
      match w.trace with
      | None -> ()
      | Some sink ->
          Trace.emit sink
            { Trace.time = Engine.now w.engine; node = -1; kind = Trace.Fault f }
    in
    (* The timer budget is per fault era: each fault step delimits a new
       network regime in which stuck nodes may again time out (they re-arm
       and rebroadcast on every expiry), so post-heal recovery is
       explorable however much budget the partition itself consumed. *)
    Array.fill w.timers_fired 0 w.cfg.n 0;
    match (step : Mc_schedule.step) with
    | Crash i ->
        H.emit w.hosts.(i) Trace.(Fault Crash);
        Engine.crash w.engine i;
        w.nodes.(i) <- None
    | Recover i ->
        Engine.recover w.engine i;
        (* The lock may legitimately regress to whatever the WAL preserved. *)
        w.lock_floor.(i) <- 0;
        H.recover w.hosts.(i)
    | Partition_on groups ->
        edge Trace.Partition_start;
        w.partition <- Some groups
    | Partition_off ->
        edge Trace.Partition_heal;
        w.partition <- None

  exception Bad_path of string

  (* Invariants checked at every reached state, for live nodes only. *)
  let post_checks w =
    Array.iteri
      (fun i node ->
        match node with
        | None -> ()
        | Some node when not (Engine.is_down w.engine i) ->
            let lv = P.lock_view node in
            if lv < w.lock_floor.(i) then
              add_violation w Mc_report.Lock_regression
                (Printf.sprintf "node %d lock went from view %d back to %d" i
                   w.lock_floor.(i) lv)
            else w.lock_floor.(i) <- lv;
            if not (P.wal_consistent node) then
              add_violation w Mc_report.Wal_divergence
                (Printf.sprintf "node %d in-memory safety state disagrees with its WAL" i)
        | Some _ -> ())
      w.nodes

  let exec_action w a =
    w.steps <- w.steps + 1;
    (try
       (match a with
       | A_msg e ->
           let q = w.channels.((e.e_dst * w.cfg.n) + e.e_src) in
           (match Queue.take_opt q with
           | Some head when head == e -> ()
           | _ -> raise (Bad_path "delivered entry is not its channel's head"));
           Engine.dispatch w.engine e.e_ev
       | A_timer t ->
           t.t_fired <- true;
           w.timers_fired.(t.t_owner) <- w.timers_fired.(t.t_owner) + 1;
           Engine.dispatch w.engine t.t_ev
       | A_fault step ->
           w.fault_idx <- w.fault_idx + 1;
           apply_fault w step);
       drain w
     with Bft_chain.Commit_log.Safety_violation msg ->
       Queue.clear w.sync_q;
       add_violation w Mc_report.Commit_log_exception msg);
    (* One logical tick per action keeps [Env.now] monotone so time-window
       heuristics inside nodes (sync backoff) stay deterministic. *)
    Engine.advance_clock w.engine (Engine.now w.engine +. 1.0);
    post_checks w

  (* Structured state vector — same content (and same digest, modulo the
     identity permutation) as the old flat [state_digest], but exposing the
     per-slot structure {!Symmetry.apply} needs to permute. *)
  let vec_of_world w =
    let n = w.cfg.n in
    let nodes =
      Array.init n (fun i ->
          let s =
            match w.nodes.(i) with
            | Some node when not (Engine.is_down w.engine i) ->
                Hash.to_int64 (P.state_hash node)
            | _ -> 0xdeadL
          in
          (s, Hash.to_int64 (P.wal_hash w.wals.(i))))
    in
    (* In-flight messages: per-channel content sequences, channels in fixed
       (dst, src) order. *)
    let chans =
      Array.map
        (fun q ->
          let contents =
            Queue.fold
              (fun acc e ->
                if Engine.pending_live w.engine e.e_ev then e.e_digest :: acc
                else acc)
              [] q
          in
          Hash.to_int64 (Hash.of_fields (List.rev contents)))
        w.channels
    in
    (* Cross-channel arrival order per destination: the reorder window is a
       function of it, so state matching must distinguish it. *)
    let arrivals =
      Array.init n (fun dst ->
          let arr = ref [] in
          for src = 0 to n - 1 do
            Queue.iter
              (fun e ->
                if Engine.pending_live w.engine e.e_ev then arr := e :: !arr)
              w.channels.((dst * n) + src)
          done;
          List.sort (fun a b -> compare a.e_seq b.e_seq) !arr
          |> List.map (fun e -> e.e_src))
    in
    (* Live timers per owner, by count: timers of one owner are mutually
       dependent and protocols re-arm rather than accumulate, so the count
       abstracts the set safely for the worlds we explore. *)
    let timers = Array.make n 0 in
    List.iter
      (fun t ->
        if (not t.t_fired) && Engine.pending_live w.engine t.t_ev then
          let o = if t.t_owner < 0 then 0 else t.t_owner in
          timers.(o) <- timers.(o) + 1)
      w.timers;
    {
      Symmetry.sv_n = n;
      sv_nodes = nodes;
      sv_chans = chans;
      sv_arrivals = arrivals;
      sv_timers = timers;
      sv_fired = Array.copy w.timers_fired;
      sv_fault_idx = w.fault_idx;
    }

  (* The permutation group for canonicalization, or [None] when symmetry is
     off or the movable set is too small to buy anything.  Fixed nodes:
     every leader of an explored view (by index, courtesy of round-robin),
     equivocators, and any node the fault schedule names. *)
  let group_of_cfg cfg =
    if not cfg.symmetry then None
    else
      let fixed = cfg.equivocators @ fault_fixed cfg.faults in
      match Symmetry.movable ~n:cfg.n ~view_bound:cfg.view_bound ~fixed with
      | [] | [ _ ] -> None
      | movable -> Some (Symmetry.group ~n:cfg.n movable)

  let state_digest ~group w =
    let v = vec_of_world w in
    match group with
    | None -> Symmetry.digest v
    | Some grp -> Symmetry.canonical grp v

  let max_view w =
    Array.fold_left
      (fun acc node ->
        match node with Some n -> max acc (P.current_view n) | None -> acc)
      0 w.nodes

  (* {2 Livelock certification}

     A commit-free state with no enabled action can be stuck for two very
     different reasons: the protocol is genuinely wedged (no finite amount
     of timing out ever moves it — a liveness bug), or the finite
     [timer_budget] ran out one expiry short of recovery (an artifact of
     the bound).  The probe distinguishes them: grant one budget-free timer
     round — fire every live pending timer once, in canonical order,
     draining deliveries deterministically after each — and compare state
     digests (timer-budget bookkeeping zeroed) before and after.  An
     unchanged digest certifies a fixpoint: expiries only re-send
     information every peer already has, so every future round repeats this
     one forever.  A changed digest means timeouts still make progress and
     the stall was a budget artifact.

     Only claimed for quiet worlds — schedule fully applied, no partition,
     all nodes live — so the fixpoint really does describe the infinite
     suffix. *)

  let post_schedule_clean w =
    w.fault_idx >= List.length w.cfg.faults
    && w.partition = None
    && Array.for_all Option.is_some w.nodes
    &&
    let live = ref true in
    for i = 0 to w.cfg.n - 1 do
      if Engine.is_down w.engine i then live := false
    done;
    !live

  exception Probe_diverged

  (* Deliver every deliverable message, always taking the canonically first
     one ([enabled] sorts deliveries ahead of timers and faults).  [fuel]
     bounds the drain: a cascade that does not quiesce (e.g. the block
     synchronizer re-requesting as the probe's clock ticks) is by
     definition not a fixpoint, so the certification is abandoned. *)
  let rec deliver_all ~fuel w =
    match enabled w with
    | A_msg e :: _ ->
        if !fuel <= 0 then raise Probe_diverged;
        decr fuel;
        exec_action w (A_msg e);
        deliver_all ~fuel w
    | _ -> ()

  (* Digest with the per-era timer-firing counters zeroed: the probe
     compares protocol-and-network state, not budget bookkeeping. *)
  let probe_digest w =
    let v = vec_of_world w in
    Symmetry.digest { v with Symmetry.sv_fired = Array.make w.cfg.n 0 }

  let livelock_probe w =
    let viol0 = List.length w.violations in
    let d0 = probe_digest w in
    (* One budget-free timer round costs at most n firings; a healthy drain
       after each is O(messages in flight) = O(n^2) per hop with a short
       chain of reactive hops.  Anything past this bound is a protocol
       making real (if unbounded) progress, not a fixpoint. *)
    let fuel = ref (1024 * w.cfg.n * w.cfg.n) in
    try
      deliver_all ~fuel w;
      let round =
        List.filter
          (fun t -> (not t.t_fired) && Engine.pending_live w.engine t.t_ev)
          w.timers
        |> List.sort (fun a b -> compare (a.t_owner, a.t_idx) (b.t_owner, b.t_idx))
      in
      List.iter
        (fun t ->
          (* Re-check: an earlier expiry in the round may have re-armed or
             invalidated this one. *)
          if (not t.t_fired) && Engine.pending_live w.engine t.t_ev then begin
            exec_action w (A_timer t);
            deliver_all ~fuel w
          end)
        round;
      let d1 = probe_digest w in
      List.length w.violations = viol0 && Int64.equal d0 d1
    with Probe_diverged -> false

  (* {2 Path replay} *)

  let step_path w idx =
    let acts = enabled w in
    match List.nth_opt acts idx with
    | Some a -> exec_action w a
    | None ->
        raise
          (Bad_path
             (Printf.sprintf "index %d out of %d enabled actions" idx (List.length acts)))

  (* Replay [path] on a fresh world.  Violations are only reported for the
     final transition: every proper prefix was itself a frontier state, was
     checked then, and (being violation-free, or it would not have been
     expanded) contributes nothing new. *)
  let run_path ?trace cfg path =
    let w = make_world ?trace cfg in
    let rec go = function
      | [] -> ()
      | [ last ] ->
          w.violations <- [];
          step_path w last
      | idx :: rest ->
          step_path w idx;
          go rest
    in
    (match path with [] -> () | _ -> go path);
    w

  type probe = {
    r_digest : int64;
    r_enabled : (int64 * int * bool) array;
        (** canonical order: (key, location, is_fault) per enabled action *)
    r_violations : (Mc_report.violation_kind * string) list;
    r_committed : int;
    r_view_bound_hit : bool;
    r_livelock : bool;  (** commit-free terminal state with a certified fixpoint *)
  }

  let probe_path ~group cfg path =
    let w = run_path cfg path in
    let acts = enabled w in
    let digest = state_digest ~group w in
    let violations = List.rev w.violations in
    let committed = w.commits_total in
    let view_hit = max_view w > cfg.view_bound in
    let livelock =
      (* Certify last: the probe mutates the world. *)
      acts = [] && committed = 0 && violations = []
      && post_schedule_clean w && livelock_probe w
    in
    {
      r_digest = digest;
      r_enabled =
        Array.of_list
          (List.map (fun a -> (action_key a, action_loc a, action_global_dep a)) acts);
      r_violations = violations;
      r_committed = committed;
      r_view_bound_hit = view_hit;
      r_livelock = livelock;
    }

  (* {2 Exploration} *)

  type frontier_entry = {
    f_path : int list;
    f_sleep : (int64 * int * bool) list;
  }

  let sleep_keys sleep = List.map (fun (k, _, _) -> k) sleep

  let check ?stop ?(jobs = 1) cfg =
    let group = group_of_cfg cfg in
    let visited : (int64, (int64 * int * bool) list) Hashtbl.t =
      Hashtbl.create 4096
    in
    let states_visited = ref 0 in
    let states_matched = ref 0 in
    let states_reexpanded = ref 0 in
    let transitions = ref 0 in
    let branches = ref 0 in
    let sleep_skips = ref 0 in
    let leaves = ref 0 in
    let max_depth_seen = ref 0 in
    let exhausted = ref true in
    let violations = ref [] in
    let max_committed = ref 0 in
    let commit_witness = ref None in
    let leaves_without_commit = ref 0 in
    let deadlocks = ref 0 in
    let deadlock_witness = ref None in
    let livelocks = ref 0 in
    let livelock_witness = ref None in
    let frontier = ref [ { f_path = []; f_sleep = [] } ] in
    let depth = ref 0 in
    while !frontier <> [] do
      (match stop with
      | Some f when f () ->
          (* Deadline: report what was explored, flagged non-exhaustive. *)
          exhausted := false;
          frontier := []
      | _ -> ());
      max_depth_seen := max !max_depth_seen !depth;
      let probes =
        Bft_parallel.Parallel.map ~jobs
          (fun e -> probe_path ~group cfg e.f_path)
          !frontier
      in
      let next = ref [] in
      List.iter2
        (fun entry probe ->
          incr transitions;
          if probe.r_committed > 0 then begin
            if !commit_witness = None then commit_witness := Some entry.f_path;
            max_committed := max !max_committed probe.r_committed
          end;
          let leaf_at reason_commitless =
            incr leaves;
            if reason_commitless && probe.r_committed = 0 then
              incr leaves_without_commit
          in
          if probe.r_violations <> [] then begin
            List.iter
              (fun (kind, detail) ->
                violations :=
                  { Mc_report.kind; detail; path = entry.f_path } :: !violations)
              probe.r_violations;
            (* A violating state is a leaf; make later hits on its digest
               prune unconditionally.  A revisit counts as matched, not as a
               fresh state — the digest was already in the table. *)
            if Hashtbl.mem visited probe.r_digest then incr states_matched
            else incr states_visited;
            Hashtbl.replace visited probe.r_digest [];
            leaf_at false
          end
          else begin
            let prev = Hashtbl.find_opt visited probe.r_digest in
            let prune =
              match prev with
              | Some stored ->
                  let new_keys = sleep_keys entry.f_sleep in
                  List.for_all (fun (k, _, _) -> List.mem k new_keys) stored
              | None -> false
            in
            if prune then incr states_matched
            else begin
              let eff_sleep =
                match prev with
                | None ->
                    incr states_visited;
                    entry.f_sleep
                | Some stored ->
                    (* Revisit with a smaller sleep set: re-expand from the
                       intersection so nothing stays unexplored. *)
                    incr states_reexpanded;
                    let stored_keys = sleep_keys stored in
                    List.filter
                      (fun (k, _, _) -> List.mem k stored_keys)
                      entry.f_sleep
              in
              Hashtbl.replace visited probe.r_digest eff_sleep;
              if Array.length probe.r_enabled = 0 then begin
                leaf_at true;
                if probe.r_committed = 0 then begin
                  incr deadlocks;
                  if !deadlock_witness = None then
                    deadlock_witness := Some entry.f_path;
                  if probe.r_livelock then begin
                    incr livelocks;
                    if !livelock_witness = None then
                      livelock_witness := Some entry.f_path
                  end
                end
              end
              else if probe.r_view_bound_hit then leaf_at true
              else if List.length entry.f_path >= cfg.max_depth then begin
                exhausted := false;
                leaf_at true
              end
              else begin
                let sleep = ref eff_sleep in
                Array.iteri
                  (fun j ((key, loc, global_dep) as a) ->
                    if List.exists (fun (k, _, _) -> Int64.equal k key) !sleep
                    then incr sleep_skips
                    else begin
                      let child_sleep =
                        if global_dep then []
                        else
                          List.filter
                            (fun (_, l, g) -> (not g) && l <> loc)
                            !sleep
                      in
                      incr branches;
                      next :=
                        { f_path = entry.f_path @ [ j ]; f_sleep = child_sleep }
                        :: !next
                    end;
                    sleep := a :: !sleep)
                  probe.r_enabled
              end
            end
          end)
        !frontier probes;
      frontier := List.rev !next;
      incr depth
    done;
    {
      Mc_report.stats =
        {
          Mc_report.states_visited = !states_visited;
          states_matched = !states_matched;
          states_reexpanded = !states_reexpanded;
          transitions = !transitions;
          branches = !branches;
          sleep_skips = !sleep_skips;
          leaves = !leaves;
          max_depth_seen = !max_depth_seen;
          exhausted = !exhausted;
        };
      violations = List.rev !violations;
      max_committed = !max_committed;
      commit_witness = !commit_witness;
      leaves_without_commit = !leaves_without_commit;
      deadlocks = !deadlocks;
      deadlock_witness = !deadlock_witness;
      livelocks = !livelocks;
      livelock_witness = !livelock_witness;
    }

  (* {2 Swarm mode — sleep-set-respecting random walks}

     Each walk samples one maximal interleaving: at every state it draws
     uniformly among the enabled actions not in its sleep set, recording the
     index into the full canonically-sorted enabled list so walk paths
     replay through the exact machinery exhaustive counterexamples use.
     Sleep sets evolve exactly as in the exhaustive expansion, so a walk
     never burns steps on an interleaving some sibling choice already
     covers.  Per-walk RNGs are derived by hashing (seed, walk index) —
     never by offsetting the seed — so distinct walks (and distinct seeds)
     cannot alias, and results are independent of [jobs]. *)

  type walk = {
    wk_endpoint : Mc_report.endpoint;
    wk_path : int list;
    wk_steps : int;
    wk_commits : int;
    wk_digests : int64 list;  (** newest first; the initial state included *)
    wk_violation : (Mc_report.violation_kind * string) option;
    wk_tail : int;  (** commit-free steps at the end of the walk *)
  }

  let walk_seed seed i =
    Int64.to_int
      (Int64.shift_right_logical
         (Hash.to_int64 (Hash.of_fields [ Int64.of_int seed; Int64.of_int i ]))
         1)

  let run_walk ~group ~depth ~seed cfg index =
    let rng = Bft_sim.Rng.create (walk_seed seed index) in
    let w = make_world cfg in
    let digests = ref [ state_digest ~group w ] in
    let path = ref [] in
    let sleep = ref [] in
    let steps = ref 0 in
    let last_commit = ref 0 in
    let violation = ref None in
    let endpoint = ref None in
    while !endpoint = None do
      let acts = enabled w in
      if acts = [] then
        endpoint :=
          Some
            (if
               w.commits_total = 0 && w.violations = []
               && post_schedule_clean w && livelock_probe w
             then Mc_report.Ep_livelock
             else Mc_report.Ep_no_action)
      else if max_view w > cfg.view_bound then
        endpoint := Some Mc_report.Ep_view_bound
      else if !steps >= depth then endpoint := Some Mc_report.Ep_depth
      else begin
        let arr = Array.of_list acts in
        let keyed =
          Array.map
            (fun a -> (action_key a, action_loc a, action_global_dep a))
            arr
        in
        let avail =
          List.filter
            (fun j ->
              let k, _, _ = keyed.(j) in
              not (List.exists (fun (k', _, _) -> Int64.equal k k') !sleep))
            (List.init (Array.length arr) Fun.id)
        in
        (* All enabled actions asleep: the trace so far is redundant with
           some earlier-ordered interleaving — but that ordering is not
           being explored by anyone, so a walk that stopped here (as a pure
           sleep-set walk would) wastes nearly its whole depth budget.
           Wake everything and keep sampling. *)
        let avail =
          match avail with
          | [] ->
              sleep := [];
              List.init (Array.length arr) Fun.id
          | _ -> avail
        in
        begin
            let j = List.nth avail (Bft_sim.Rng.int rng (List.length avail)) in
            let _, loc, glob = keyed.(j) in
            (* Siblings ordered before the choice join the inherited sleep
               set, exactly as the exhaustive expansion would have it when
               exploring branch [j]. *)
            let pre = ref !sleep in
            for k = j - 1 downto 0 do
              pre := keyed.(k) :: !pre
            done;
            sleep :=
              (if glob then []
               else List.filter (fun (_, l, g) -> (not g) && l <> loc) !pre);
            let before = w.commits_total in
            exec_action w arr.(j);
            incr steps;
            path := j :: !path;
            if w.commits_total > before then last_commit := !steps;
            digests := state_digest ~group w :: !digests;
            if w.violations <> [] then begin
              (match List.rev w.violations with
              | v :: _ -> violation := Some v
              | [] -> ());
              endpoint := Some Mc_report.Ep_violation
            end
        end
      end
    done;
    {
      wk_endpoint = Option.get !endpoint;
      wk_path = List.rev !path;
      wk_steps = !steps;
      wk_commits = w.commits_total;
      wk_digests = !digests;
      wk_violation = !violation;
      wk_tail = !steps - !last_commit;
    }

  let run_walks ?(jobs = 1) ~walks ~depth ~seed cfg =
    let group = group_of_cfg cfg in
    Bft_parallel.Parallel.map ~jobs
      (fun i -> run_walk ~group ~depth ~seed cfg i)
      (List.init walks Fun.id)

  let endpoint_rank = function
    | Mc_report.Ep_violation -> 0
    | Mc_report.Ep_livelock -> 1
    | Mc_report.Ep_no_action -> 2
    | Mc_report.Ep_view_bound -> 3
    | Mc_report.Ep_depth -> 4

  let swarm ?jobs ~walks ~depth ~seed cfg =
    let ws = run_walks ?jobs ~walks ~depth ~seed cfg in
    let distinct = Hashtbl.create 4096 in
    let steps = ref 0 in
    let max_committed = ref 0 in
    let commitless = ref 0 in
    let max_tail = ref 0 in
    let violations = ref [] in
    let livelock = ref None in
    let counts = Hashtbl.create 7 in
    let fingerprint = ref [] in
    List.iter
      (fun wk ->
        steps := !steps + wk.wk_steps;
        max_committed := max !max_committed wk.wk_commits;
        if wk.wk_commits = 0 then incr commitless;
        max_tail := max !max_tail wk.wk_tail;
        List.iter (fun d -> Hashtbl.replace distinct d ()) wk.wk_digests;
        Hashtbl.replace counts wk.wk_endpoint
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts wk.wk_endpoint));
        (match (wk.wk_endpoint, !livelock) with
        | Mc_report.Ep_livelock, None -> livelock := Some wk.wk_path
        | _ -> ());
        (match wk.wk_violation with
        | Some (kind, detail) ->
            violations :=
              { Mc_report.kind; detail; path = wk.wk_path } :: !violations
        | None -> ());
        (* Order-sensitive: any divergence in any walk's endpoint, length,
           choices or final state changes the fingerprint, which is what the
           determinism tests pin down across [jobs] settings. *)
        fingerprint :=
          Hash.to_int64
            (Hash.of_fields
               (Int64.of_int (endpoint_rank wk.wk_endpoint)
               :: Int64.of_int wk.wk_steps
               :: Int64.of_int wk.wk_commits
               :: (match wk.wk_digests with d :: _ -> d | [] -> 0L)
               :: List.map Int64.of_int wk.wk_path))
          :: !fingerprint)
      ws;
    let endpoints =
      List.map
        (fun ep -> (ep, Option.value ~default:0 (Hashtbl.find_opt counts ep)))
        [
          Mc_report.Ep_violation;
          Ep_livelock;
          Ep_no_action;
          Ep_view_bound;
          Ep_depth;
        ]
    in
    {
      Mc_report.sw_walks = List.length ws;
      sw_steps = !steps;
      sw_distinct = Hashtbl.length distinct;
      sw_endpoints = endpoints;
      sw_max_committed = !max_committed;
      sw_commitless = !commitless;
      sw_max_tail = !max_tail;
      sw_violations = List.rev !violations;
      sw_livelock_witness = !livelock;
      sw_fingerprint = Hash.to_int64 (Hash.of_fields (List.rev !fingerprint));
    }

  (* {2 Coverage-guided schedule search} *)

  let outcome_of_walks ws =
    let digests = List.concat_map (fun wk -> wk.wk_digests) ws in
    let near = List.length (List.filter (fun wk -> wk.wk_commits = 0) ws) in
    let cx =
      List.find_map
        (fun wk ->
          match wk.wk_endpoint with
          | Mc_report.Ep_livelock -> Some (Mc_report.Cx_livelock wk.wk_path)
          | Mc_report.Ep_violation -> (
              match wk.wk_violation with
              | Some (kind, detail) ->
                  Some
                    (Mc_report.Cx_violation
                       { Mc_report.kind; detail; path = wk.wk_path })
              | None -> None)
          | _ -> None)
        ws
    in
    { Explorer.o_digests = digests; o_near_misses = near; o_counterexample = cx }

  let schedule_search ?(jobs = 1) xcfg (cfg : config) =
    let n = cfg.n in
    let eval_count = ref 0 in
    let eval sched =
      let k = !eval_count in
      incr eval_count;
      match Mc_schedule.compile ~n sched with
      | Error _ ->
          (* Mutants are pre-validated; an uncompilable seed just scores 0. *)
          { Explorer.o_digests = []; o_near_misses = 0; o_counterexample = None }
      | Ok steps ->
          let cfg = { cfg with faults = steps } in
          (* Per-candidate swarm seed, derived like per-walk seeds so
             candidate evaluations never alias each other. *)
          let seed = walk_seed xcfg.s_seed (1_000_000 + k) in
          outcome_of_walks
            (run_walks ~jobs ~walks:xcfg.s_walks ~depth:xcfg.s_depth ~seed cfg)
    in
    let r =
      Explorer.search ~seed:xcfg.s_seed ~rounds:xcfg.s_rounds
        ~population:xcfg.s_population ~mutants:xcfg.s_mutants
        ~init:(Bft_faults.Mutate.seeds ~n)
        ~mutate:(Bft_faults.Mutate.mutate ~n ~f:xcfg.s_fault_budget)
        ~eval
    in
    let show = Bft_faults.Fault_schedule.to_string in
    {
      Mc_report.se_rounds = r.Explorer.x_rounds;
      se_evals = r.Explorer.x_evals;
      se_distinct = r.Explorer.x_distinct;
      se_best = List.map (fun (s, fit) -> (show s, fit)) r.Explorer.x_best;
      se_counterexample =
        Option.map (fun (s, c) -> (show s, c)) r.Explorer.x_counterexample;
    }

  (* {2 Counterexample replay} *)

  let replay cfg path =
    let sink = Trace.create () in
    let (_ : world) = run_path ~trace:sink cfg path in
    sink
end

(* {2 Protocol dispatch} *)

module Kind = Bft_runtime.Protocol_kind

module Simple_mc = Make (Moonshot.Simple_node.Protocol)
module Pipelined_mc = Make (Moonshot.Pipelined_node.Protocol)
module Commit_mc = Make (Moonshot.Pipelined_node.Commit_protocol)
module Jolteon_mc = Make (Jolteon.Jolteon_node.Protocol)
module Hotstuff_mc = Make (Hotstuff.Hotstuff_node.Protocol)

let check ?stop ?jobs kind cfg =
  match (kind : Kind.t) with
  | Simple_moonshot -> Simple_mc.check ?stop ?jobs cfg
  | Pipelined_moonshot -> Pipelined_mc.check ?stop ?jobs cfg
  | Commit_moonshot -> Commit_mc.check ?stop ?jobs cfg
  | Jolteon -> Jolteon_mc.check ?stop ?jobs cfg
  | Hotstuff -> Hotstuff_mc.check ?stop ?jobs cfg

let swarm ?jobs kind ~walks ~depth ~seed cfg =
  match (kind : Kind.t) with
  | Simple_moonshot -> Simple_mc.swarm ?jobs ~walks ~depth ~seed cfg
  | Pipelined_moonshot -> Pipelined_mc.swarm ?jobs ~walks ~depth ~seed cfg
  | Commit_moonshot -> Commit_mc.swarm ?jobs ~walks ~depth ~seed cfg
  | Jolteon -> Jolteon_mc.swarm ?jobs ~walks ~depth ~seed cfg
  | Hotstuff -> Hotstuff_mc.swarm ?jobs ~walks ~depth ~seed cfg

let schedule_search ?jobs kind xcfg cfg =
  match (kind : Kind.t) with
  | Simple_moonshot -> Simple_mc.schedule_search ?jobs xcfg cfg
  | Pipelined_moonshot -> Pipelined_mc.schedule_search ?jobs xcfg cfg
  | Commit_moonshot -> Commit_mc.schedule_search ?jobs xcfg cfg
  | Jolteon -> Jolteon_mc.schedule_search ?jobs xcfg cfg
  | Hotstuff -> Hotstuff_mc.schedule_search ?jobs xcfg cfg

let replay kind cfg path =
  match (kind : Kind.t) with
  | Simple_moonshot -> Simple_mc.replay cfg path
  | Pipelined_moonshot -> Pipelined_mc.replay cfg path
  | Commit_moonshot -> Commit_mc.replay cfg path
  | Jolteon -> Jolteon_mc.replay cfg path
  | Hotstuff -> Hotstuff_mc.replay cfg path
