type verdict = Admitted | Deferred | Rejected

type t = {
  lanes : Lane.t array;
  backlog : Lane.t array;
  mutable rotor : int;
  committed_per_lane : int array;
  mutable submitted : int;
  mutable admitted : int;
  mutable deferred : int;
  mutable rejected : int;
  mutable committed : int;
}

let create ~lanes ~lane_capacity ~backlog_capacity =
  if lanes <= 0 then invalid_arg "Mempool.create: lanes must be positive";
  {
    lanes = Array.init lanes (fun _ -> Lane.create ~capacity:lane_capacity);
    backlog = Array.init lanes (fun _ -> Lane.create ~capacity:backlog_capacity);
    rotor = 0;
    committed_per_lane = Array.make lanes 0;
    submitted = 0;
    admitted = 0;
    deferred = 0;
    rejected = 0;
    committed = 0;
  }

let lane_of t ~client = client mod Array.length t.lanes

let submit t ~client ~seq ~time =
  t.submitted <- t.submitted + 1;
  let l = lane_of t ~client in
  if not (Lane.is_full t.lanes.(l)) then begin
    Lane.push t.lanes.(l) ~seq ~time;
    t.admitted <- t.admitted + 1;
    Admitted
  end
  else if not (Lane.is_full t.backlog.(l)) then begin
    (* Bounded retry: the command waits in the lane's backlog with its
       original submit time, so deferral shows up in its latency. *)
    Lane.push t.backlog.(l) ~seq ~time;
    t.deferred <- t.deferred + 1;
    Deferred
  end
  else begin
    t.rejected <- t.rejected + 1;
    Rejected
  end

let promote t l =
  if (not (Lane.is_empty t.backlog.(l))) && not (Lane.is_full t.lanes.(l)) then begin
    Lane.push t.lanes.(l) ~seq:(Lane.front_seq t.backlog.(l))
      ~time:(Lane.front_time t.backlog.(l));
    Lane.pop t.backlog.(l)
  end

let pending t = Array.fold_left (fun acc l -> acc + Lane.length l) 0 t.lanes

let backlogged t =
  Array.fold_left (fun acc l -> acc + Lane.length l) 0 t.backlog

let committed_per_lane t = Array.copy t.committed_per_lane

let drain t ~count ~f =
  let k = Array.length t.lanes in
  let drained = ref 0 in
  let empty_scan = ref 0 in
  while !drained < count && !empty_scan < k do
    let l = t.rotor in
    t.rotor <- (if t.rotor + 1 >= k then 0 else t.rotor + 1);
    if Lane.is_empty t.lanes.(l) then incr empty_scan
    else begin
      empty_scan := 0;
      let seq = Lane.front_seq t.lanes.(l) in
      let time = Lane.front_time t.lanes.(l) in
      Lane.pop t.lanes.(l);
      promote t l;
      t.committed_per_lane.(l) <- t.committed_per_lane.(l) + 1;
      t.committed <- t.committed + 1;
      f ~seq ~lane:l ~time;
      incr drained
    end
  done;
  !drained

type counters = {
  submitted : int;
  admitted : int;
  deferred : int;
  rejected : int;
  committed : int;
}

let counters (t : t) =
  {
    submitted = t.submitted;
    admitted = t.admitted;
    deferred = t.deferred;
    rejected = t.rejected;
    committed = t.committed;
  }
