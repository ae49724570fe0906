(* The four workloads and one measured run of a protocol on each.

   Every workload runs Commit Moonshot (CM, the headline protocol) and then
   Jolteon (J, the baseline).  A workload's inputs are a pure function of
   the seed and a scale factor: 1 for a timed repetition, 1/10 for the
   untimed warm-up, about 1/50 for the smoke run.  A repetition takes two
   to five seconds of wall time on a 2-core host, so that a 25-second run
   holds three to six of them.  The program under test receives only the
   generated configuration. *)

open Bft_types
module Config = Bft_runtime.Config
module Harness = Bft_runtime.Harness
module Net_harness = Bft_runtime.Net_harness
module Kind = Bft_runtime.Protocol_kind
module Tcp = Bft_net.Tcp
module Spec = Bft_mempool.Spec
module Ingest = Bft_mempool.Ingest

let protocols = [ Kind.Commit_moonshot; Kind.Jolteon ]
let tag p = String.lowercase_ascii (Kind.short_name p)

type substrate =
  | Sim of (Kind.t -> Config.t)
  | Net of (Kind.t -> Tcp.config)

type t = {
  name : string;
  n : int;  (** Cluster size. *)
  make : seed:int -> scale:float -> substrate;
  setup : seed:int -> substrate;  (** The set-up-only variant. *)
  clients : Spec.t option;  (** CM's client spec, for the replay probe. *)
}

(* Open-loop Poisson client traffic from a million clients. *)
let client_spec ~seed ~rate ~lane_capacity ~backlog ~max_batch =
  {
    Spec.default with
    Spec.clients = 1_000_000;
    rate_per_s = rate;
    clock = Spec.Wall;
    lanes = 8;
    lane_capacity;
    backlog_capacity = backlog;
    max_batch;
    seed;
  }

(* The simulated horizon of a scaled run: [ms *. scale], but never below
   [floor] so that even a smoke run commits blocks. *)
let horizon ms ~scale ~floor = Float.max floor (ms *. scale)

(* O(n^2) vote fan-out on the WAN model, egress and CPU models on: the
   engine, the network model and vote handling do the work, the chain stays
   short (h≈140 after 25 s simulated).  CM commits over 100 blocks, so that
   its p90 commit latency has ten samples beyond it. *)
let wan_n100 =
  let make ~seed ~duration p =
    {
      (Config.default p ~n:100) with
      Config.payload_bytes = 1800;
      duration_ms = duration;
      seed;
    }
  in
  {
    name = "wan-n100";
    n = 100;
    make =
      (fun ~seed ~scale ->
        Sim (make ~seed ~duration:(horizon 25_000. ~scale ~floor:1_200.)));
    setup = (fun ~seed -> Sim (make ~seed ~duration:1.));
    clients = None;
  }

(* The mirror of [wan_n100]: few messages per block and a chain of
   thousands of blocks (CM 3 s simulated, h≈3k; J 5 s, h≈2.2k), so the
   handlers and the chain do the work and the engine idles.  At these
   heights the cost of a commit that walks the whole chain dominates. *)
let lan_longchain =
  let make ~seed ~duration p =
    {
      (Config.local p ~n:4) with
      Config.latency = Config.Uniform { base = 1.; jitter = 0. };
      delta_ms = 50.;
      duration_ms = duration p;
      seed;
    }
  in
  {
    name = "lan-longchain";
    n = 4;
    make =
      (fun ~seed ~scale ->
        Sim
          (make ~seed ~duration:(fun p ->
               let ms = if p = Kind.Commit_moonshot then 3_000. else 5_000. in
               horizon ms ~scale ~floor:50.)));
    setup = (fun ~seed -> Sim (make ~seed ~duration:(fun _ -> 1.)));
    clients = None;
  }

(* One crash of a non-observer node, then a partition of the survivors into
   two halves that leaves no quorum, healed before the crashed node
   recovers, all within the first [span] ms.  The seed draws the victim and
   moves every edge by up to 2% of [span], so each seed exercises the same
   layers with the same amount of work. *)
let chaos_schedule ~seed ~n ~span =
  let rng = Bft_sim.Rng.create (0x0c4a05 + seed) in
  let at frac = (frac +. Bft_sim.Rng.float rng 0.02) *. span in
  let leader = 1 + Bft_sim.Rng.int rng (n - 1) in
  let crash_at = at 0.15 in
  let partition_at = at 0.25 in
  let heal_at = at 0.33 in
  let recover_at = at 0.40 in
  Bft_faults.Fault_schedule.demo ~n ~leader ~crash_at ~partition_at ~heal_at
    ~recover_at

(* The chain under faults and clients: catch-up inserts ancestors out of
   order and deferred commits re-walk the chain, while the mempool backlog,
   the fault overlay and the liveness monitor run.  30 s simulated (h≈1.8k
   for CM) sizes a repetition at two seconds or more.  The faults fall in
   the first two thirds of the run: longer windows would hold more arrivals
   than the lanes and backlog take while no quorum commits, and Jolteon
   would reject commands; the last third grows the chain on the healed
   cluster. *)
let chaos_clients =
  let n = 7 in
  let spec ~seed =
    client_spec ~seed ~rate:7_000. ~lane_capacity:2048 ~backlog:2048
      ~max_batch:256
  in
  let make ~seed ~duration p =
    {
      (Config.local p ~n) with
      Config.duration_ms = duration;
      faults = chaos_schedule ~seed ~n ~span:(duration *. 2. /. 3.);
      clients = Some (spec ~seed);
      seed;
    }
  in
  {
    name = "chaos-clients";
    n;
    make =
      (fun ~seed ~scale ->
        Sim (make ~seed ~duration:(horizon 30_000. ~scale ~floor:400.)));
    (* The full run's schedule, so set-up compiles the same fault plan. *)
    setup =
      (fun ~seed ->
        Sim
          (fun p ->
            { (make ~seed ~duration:30_000. p) with Config.duration_ms = 1. }));
    clients = Some (spec ~seed:1);
  }

(* WAL snapshots go under the benchmark's own build directory, one
   directory per process so concurrent runs never share files. *)
let work_dir = Filename.concat "_build" "benchmark"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let wal_path () =
  Filename.concat work_dir (Printf.sprintf "wal-%d" (Unix.getpid ()))

let wal_dir () =
  let dir = wal_path () in
  mkdir_p dir;
  dir

let remove_wal_dir () =
  let dir = wal_path () in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* The only run on real sockets: codec, sender queue, syscalls and a WAL
   snapshot after every handler.  Client arrivals run on the wall clock, so
   their number per block grows when the host slows down; at 5k cmd/s that
   work stays a small, steady share of a block, where 50k cmd/s fed back
   into the next block's time.  1000 blocks per protocol, not more, leave
   room for five repetitions and the no-WAL comparison in a 25-second
   run. *)
let net_wal =
  let spec ~seed =
    client_spec ~seed ~rate:5_000. ~lane_capacity:4096 ~backlog:4096
      ~max_batch:512
  in
  let make ~seed ~blocks p =
    {
      (Net_harness.config p ~n:4 ~blocks) with
      Tcp.delta_ms = 1000.;
      wal_dir = Some (wal_dir ());
      clients = Some (spec ~seed);
      fault_seed = seed;
    }
  in
  {
    name = "net-wal";
    n = 4;
    make =
      (fun ~seed ~scale ->
        Net (make ~seed ~blocks:(max 30 (int_of_float (1000. *. scale)))));
    setup = (fun ~seed -> Net (make ~seed ~blocks:1));
    clients = Some (spec ~seed:1);
  }

let all = [ wan_n100; lan_longchain; chaos_clients; net_wal ]
let find name = List.find_opt (fun w -> w.name = name) all

(* {2 One measured run} *)

type client = {
  submitted : int;
  deferred : int;
  rejected : int;
  committed : int;
  pending : int;
  backlogged : int;
  client_p50_ms : float;
  client_p99_ms : float;
  client_samples : int;
}

type run = {
  protocol : Kind.t;
  wall_s : float;
  alloc_bytes : float;
  events : int;  (** Simulator events; frames written on sockets. *)
  blocks : int;  (** Quorum-committed blocks. *)
  proposed : int;
  abandoned : int;
      (** Proposals never quorum-committed although a later proposal was. *)
  messages : int;
  bytes : int;
  height : int;  (** Highest height node 0 committed. *)
  latencies : float list;  (** Proposal -> (2f+1)-th commit, ms. *)
  period_ms : float;  (** Median gap between consecutive first proposals. *)
  fingerprint : string;
      (** Hash of node 0's (height, view, hash) sequence and of the sorted
          latencies; [""] on sockets, whose clock is the wall. *)
  client : client option;
  outage_ms : float option;
  catch_up_ms : float option;
  heal_messages : int;
  net : Tcp.result option;
  problems : string list;  (** Failed output checks. *)
}

let median = function
  | [] -> 0.
  | xs -> Bft_stats.Descriptive.median xs

let gaps times =
  let rec go = function a :: (b :: _ as rest) -> (b -. a) :: go rest | _ -> [] in
  go (List.sort Float.compare times)

let fingerprint ~chain ~latencies =
  let digest fields = Hash.to_int64 (Hash.of_fields fields) in
  Hash.to_hex
    (Hash.of_fields
       [
         digest
           (List.concat_map
              (fun (h, v, hash) -> [ Int64.of_int h; Int64.of_int v; hash ])
              chain);
         digest (List.map Int64.bits_of_float (List.sort Float.compare latencies));
       ])

let client_of_summary (s : Ingest.summary) =
  {
    submitted = s.Ingest.submitted;
    deferred = s.Ingest.deferred;
    rejected = s.Ingest.rejected;
    committed = s.Ingest.committed;
    pending = s.Ingest.pending;
    backlogged = s.Ingest.backlogged;
    client_p50_ms = s.Ingest.lat.Ingest.p50_ms;
    client_p99_ms = s.Ingest.lat.Ingest.p99_ms;
    client_samples = s.Ingest.lat.Ingest.samples;
  }

let conservation c =
  if c.submitted = c.rejected + c.committed + c.pending + c.backlogged then []
  else
    [
      Printf.sprintf
        "client conservation: submitted %d <> rejected %d + committed %d + \
         pending %d + backlogged %d"
        c.submitted c.rejected c.committed c.pending c.backlogged;
    ]

(* Wall time and allocation around [f]; [Gc.allocated_bytes] counts every
   thread of the domain, so a socket cluster's executors and senders too. *)
let measure f =
  let a0 = Gc.allocated_bytes () and t0 = Span.now_ns () in
  let r = f () in
  let t1 = Span.now_ns () in
  (r, float_of_int (t1 - t0) *. 1e-9, Gc.allocated_bytes () -. a0)

type packed = P : (module Protocol_intf.S with type msg = 'm) -> packed

module Timed_cm = Timed.Make (Moonshot.Pipelined_node.Commit_protocol)
module Timed_j = Timed.Make (Jolteon.Jolteon_node.Protocol)

let implementation ~timed = function
  | Kind.Commit_moonshot ->
      if timed then P (module Timed_cm)
      else P (module Moonshot.Pipelined_node.Commit_protocol)
  | Kind.Jolteon ->
      if timed then P (module Timed_j) else P (module Jolteon.Jolteon_node.Protocol)
  | k -> invalid_arg ("Workload.implementation: " ^ Kind.name k)

let run_sim ?trace ~timed (cfg : Config.t) =
  let (P m) = implementation ~timed cfg.Config.protocol in
  let chain = ref [] in
  let on_commit ~node (b : Block.t) =
    if node = 0 then
      chain := (b.Block.height, b.Block.view, Hash.to_int64 b.Block.hash) :: !chain
  in
  let r, wall_s, alloc_bytes =
    measure (fun () -> Harness.run_protocol ~on_commit ?trace m cfg)
  in
  let mr = r.Harness.metrics in
  let records = mr.Bft_runtime.Metrics.records in
  let committed =
    List.filter (fun x -> x.Bft_runtime.Metrics.quorum_commit_ms <> None) records
  in
  let last_committed =
    List.fold_left
      (fun acc x -> Float.max acc x.Bft_runtime.Metrics.created_ms)
      neg_infinity committed
  in
  let abandoned =
    List.length
      (List.filter
         (fun x ->
           x.Bft_runtime.Metrics.quorum_commit_ms = None
           && x.Bft_runtime.Metrics.created_ms < last_committed)
         records)
  in
  let latencies = mr.Bft_runtime.Metrics.latencies_ms in
  let client = Option.map client_of_summary r.Harness.client_summary in
  let liveness =
    Option.map (fun f -> f.Harness.liveness) r.Harness.fault_summary
  in
  let catch_up_ms =
    Option.bind liveness (fun l ->
        match
          List.filter_map
            (fun (x : Bft_obs.Liveness.recovery) ->
              Option.map (fun c -> c -. x.recovered_at_ms) x.caught_up_at_ms)
            l.Bft_obs.Liveness.recoveries
        with
        | [] -> None
        | xs -> Some (Bft_stats.Descriptive.mean xs))
  in
  let chain = List.rev !chain in
  {
    protocol = cfg.Config.protocol;
    wall_s;
    alloc_bytes;
    events = r.Harness.events_processed;
    blocks = mr.Bft_runtime.Metrics.committed_blocks;
    proposed = mr.Bft_runtime.Metrics.proposed_blocks;
    abandoned;
    messages = r.Harness.messages_sent;
    bytes = r.Harness.bytes_sent;
    height = List.fold_left (fun acc (h, _, _) -> max acc h) 0 chain;
    latencies;
    period_ms =
      median
        (gaps (List.map (fun x -> x.Bft_runtime.Metrics.created_ms) committed));
    fingerprint = fingerprint ~chain ~latencies;
    client;
    outage_ms =
      Option.map (fun l -> l.Bft_obs.Liveness.max_quorum_gap_ms) liveness;
    catch_up_ms;
    heal_messages =
      Option.fold ~none:0
        ~some:(fun f -> f.Harness.messages_during_heal)
        r.Harness.fault_summary;
    net = None;
    problems = Option.fold ~none:[] ~some:conservation client;
  }

let run_net ~timed kind (cfg : Tcp.config) =
  let (P m) = implementation ~timed kind in
  let r, wall_s, alloc_bytes = measure (fun () -> Tcp.run m cfg) in
  remove_wal_dir ();
  let n = cfg.Tcp.n in
  let quorum = Net_harness.quorum ~n in
  let lat = Tcp.quorum_latencies r ~quorum in
  let latencies = List.map snd lat in
  let committed = Hashtbl.create 64 in
  List.iter (fun (h, _) -> Hashtbl.replace committed h ()) lat;
  let first_proposal = Hashtbl.create 64 in
  Array.iter
    (fun nr ->
      List.iter
        (fun (p : Tcp.proposal) ->
          match Hashtbl.find_opt first_proposal p.Tcp.p_height with
          | Some t when t <= p.Tcp.p_time_ms -> ()
          | _ -> Hashtbl.replace first_proposal p.Tcp.p_height p.Tcp.p_time_ms)
        nr.Tcp.proposals)
    r.Tcp.nodes;
  let created =
    Hashtbl.fold
      (fun h t acc -> if Hashtbl.mem committed h then t :: acc else acc)
      first_proposal []
  in
  let client =
    Option.map
      (fun spec ->
        client_of_summary
          (Net_harness.client_stats r ~spec ~view_ms:cfg.Tcp.delta_ms))
      cfg.Tcp.clients
  in
  let sum f = Array.fold_left (fun acc nr -> acc + f nr) 0 r.Tcp.nodes in
  let problems =
    (match Net_harness.check r ~target:cfg.Tcp.target_blocks with
    | Ok () -> []
    | Error e -> [ "Net_harness.check: " ^ e ])
    @ (if r.Tcp.outcome = Tcp.Completed then []
       else [ "socket run needed a forced teardown" ])
    @ Option.fold ~none:[] ~some:conservation client
  in
  {
    protocol = kind;
    wall_s;
    alloc_bytes;
    events = sum (fun nr -> nr.Tcp.messages_sent);
    blocks = List.length lat;
    proposed = Hashtbl.length first_proposal;
    abandoned = 0;
    messages = sum (fun nr -> nr.Tcp.messages_sent);
    bytes = sum (fun nr -> nr.Tcp.bytes_sent);
    height =
      List.fold_left (fun acc c -> max acc c.Tcp.c_height) 0 r.Tcp.nodes.(0).Tcp.commits;
    latencies;
    period_ms = median (gaps created);
    fingerprint = "";
    client;
    outage_ms = None;
    catch_up_ms = None;
    heal_messages = 0;
    net = Some r;
    problems;
  }

(* One repetition: every protocol once, CM first. *)
let run_rep ~timed substrate =
  List.map
    (fun p ->
      match substrate with
      | Sim cfg -> run_sim ~timed (cfg p)
      | Net cfg -> run_net ~timed p (cfg p))
    protocols
