(* Unit tests for the machinery shared by every node implementation:
   vote aggregation, certificate tables, the generalized k-chain commit rule
   and deferred commits. *)

open Bft_types
open Moonshot
module B = Test_support.Builders
module Mock = Test_support.Mock_env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let chain = B.chain 6
let blk v = List.nth chain (v - 1)
let cert_of v = B.cert (blk v)

let make () =
  let _mock, env = Mock.create ~n:4 ~id:0 () in
  Node_core.create env

let test_genesis_preloaded () =
  let core = make () in
  check "genesis cert on file" false (Node_core.record_cert core Cert.genesis);
  check_int "high cert is genesis" 0 (Node_core.high_cert core).Cert.view

let test_add_vote_quorum () =
  let core = make () in
  check "two votes no cert" true
    (Node_core.add_vote core ~signer:0 ~kind:Vote_kind.Normal (blk 1) = None
    && Node_core.add_vote core ~signer:1 ~kind:Vote_kind.Normal (blk 1) = None);
  (match Node_core.add_vote core ~signer:2 ~kind:Vote_kind.Normal (blk 1) with
  | Some cert ->
      check_int "cert view" 1 cert.Cert.view;
      check_int "three signers" 3 cert.Cert.signers
  | None -> Alcotest.fail "third vote should complete the certificate");
  check "fourth vote does not re-fire" true
    (Node_core.add_vote core ~signer:3 ~kind:Vote_kind.Normal (blk 1) = None)

let test_add_vote_dedup_and_kinds () =
  let core = make () in
  ignore (Node_core.add_vote core ~signer:0 ~kind:Vote_kind.Normal (blk 1));
  check "duplicate signer ignored" true
    (Node_core.add_vote core ~signer:0 ~kind:Vote_kind.Normal (blk 1) = None);
  (* Opt votes accumulate separately: two opts + two normals never certify. *)
  ignore (Node_core.add_vote core ~signer:1 ~kind:Vote_kind.Opt (blk 1));
  ignore (Node_core.add_vote core ~signer:2 ~kind:Vote_kind.Opt (blk 1));
  check "kinds kept apart" true
    (Node_core.add_vote core ~signer:1 ~kind:Vote_kind.Normal (blk 1) = None)

let test_record_cert_and_high () =
  let core = make () in
  check "new cert recorded" true (Node_core.record_cert core (cert_of 2));
  check "duplicate rejected" false (Node_core.record_cert core (cert_of 2));
  check_int "high cert tracks" 2 (Node_core.high_cert core).Cert.view;
  ignore (Node_core.record_cert core (cert_of 1));
  check_int "lower cert does not lower high" 2 (Node_core.high_cert core).Cert.view

let test_same_view_different_kind_both_recorded () =
  let core = make () in
  let opt = B.cert ~kind:Vote_kind.Opt (blk 2) in
  let normal = B.cert ~kind:Vote_kind.Normal (blk 2) in
  check "both kinds filed" true
    (Node_core.record_cert core opt && Node_core.record_cert core normal);
  check "each on file" true
    ((not (Node_core.record_cert core opt)) && not (Node_core.record_cert core normal))

(* The committed chain's heights above genesis, oldest first. *)
let log_heights core =
  List.tl (Bft_chain.Commit_log.to_list (Node_core.log core))
  |> List.map (fun (b : Block.t) -> b.Block.height)

(* The table doubles past its first 64 views and again past 128: every
   certificate stays on file across each growth, and the two-chain rule
   walks across the boundaries. *)
let test_certs_across_growth () =
  let core = make () in
  let certs = List.map (fun b -> B.cert b) (B.chain 200) in
  List.iter
    (fun c ->
      check "recorded" true (Node_core.record_cert core c);
      check "on file" false (Node_core.record_cert core c);
      Node_core.commit_chains core ~depth:2 c)
    certs;
  check "committed through view 199" true
    (log_heights core = List.init 199 (fun i -> i + 1));
  List.iter
    (fun c -> check "still on file" false (Node_core.record_cert core c))
    certs

let test_chain_commits_depth2 () =
  let core = make () in
  ignore (Node_core.record_cert core (cert_of 1));
  ignore (Node_core.record_cert core (cert_of 2));
  Node_core.commit_chains core ~depth:2 (cert_of 2);
  check "consecutive pair commits the parent" true (log_heights core = [ 1 ])

let test_chain_commits_depth2_reverse_arrival () =
  (* The older certificate arrives last: the rule still fires.  The (0,1)
     window also reaches genesis, already committed: a no-op. *)
  let core = make () in
  ignore (Node_core.record_cert core (cert_of 2));
  ignore (Node_core.record_cert core (cert_of 1));
  Node_core.commit_chains core ~depth:2 (cert_of 1);
  check "works from the other side" true (log_heights core = [ 1 ])

let test_chain_commits_depth3 () =
  let core = make () in
  ignore (Node_core.record_cert core (cert_of 1));
  ignore (Node_core.record_cert core (cert_of 2));
  Node_core.commit_chains core ~depth:3 (cert_of 2);
  check "two certs above genesis are not enough at depth 3" true
    (log_heights core = []);
  ignore (Node_core.record_cert core (cert_of 3));
  Node_core.commit_chains core ~depth:3 (cert_of 3);
  check "three-chain commits the base" true (log_heights core = [ 1 ])

let test_chain_commits_gap_blocks () =
  let core = make () in
  ignore (Node_core.record_cert core (cert_of 1));
  ignore (Node_core.record_cert core (cert_of 3));
  Node_core.commit_chains core ~depth:2 (cert_of 3);
  check "view gap commits nothing" true (log_heights core = [])

let test_chain_commits_fork_blocks () =
  (* Consecutive views but no parent link: a fork off view 1's sibling. *)
  let core = make () in
  let fork2 = B.block ~view:2 ~payload_id:99 ~parent:Block.genesis () in
  ignore (Node_core.record_cert core (cert_of 1));
  ignore (Node_core.record_cert core (B.cert fork2));
  Node_core.commit_chains core ~depth:2 (B.cert fork2);
  check "parent link required" true (log_heights core = [])

let test_chain_commits_depth_validation () =
  let core = make () in
  check "depth 1 rejected" true
    (try
       Node_core.commit_chains core ~depth:1 (cert_of 1);
       false
     with Invalid_argument _ -> true)

let test_depth3_implies_depth2 () =
  (* Everything the 3-chain rule ever commits, the 2-chain rule commits too
     (3-chain is strictly more conservative): over the same certificates,
     the 3-chain log is a prefix of the 2-chain one. *)
  let run depth =
    let core = make () in
    List.iter
      (fun v ->
        ignore (Node_core.record_cert core (cert_of v));
        Node_core.commit_chains core ~depth (cert_of v))
      [ 1; 2; 3; 4 ];
    log_heights core
  in
  let two = run 2 and three = run 3 in
  check "2-chain commits through view 3" true (two = [ 1; 2; 3 ]);
  check "3-chain log is a prefix of the 2-chain log" true
    (three = List.filteri (fun i _ -> i < List.length three) two)

(* Two certified blocks at view 2, each with a certified child at view 3,
   plus a second (optimistic) certificate for [a]'s child, recorded last.
   The window's tops, newest first, reach a, a' and a again: the rule
   commits each bottom once, at its newest top, older tops first, so a'
   commits and then a conflicts with it. *)
let test_chain_commits_order () =
  let core = make () in
  let a = B.block ~view:2 ~payload_id:21 ~parent:(blk 1) () in
  let a' = B.block ~view:2 ~payload_id:22 ~parent:(blk 1) () in
  let ca = B.block ~view:3 ~payload_id:31 ~parent:a () in
  let ca' = B.block ~view:3 ~payload_id:32 ~parent:a' () in
  List.iter
    (fun c -> ignore (Node_core.record_cert core c))
    [ B.cert (blk 1); B.cert a; B.cert a'; B.cert ca; B.cert ca';
      B.cert ~kind:Vote_kind.Opt ca ];
  (match Node_core.commit_chains core ~depth:2 (B.cert ca) with
  | () -> Alcotest.fail "two conflicting bottoms must not both commit"
  | exception Bft_chain.Commit_log.Safety_violation _ -> ());
  check "a' committed first" true
    (Block.equal (Bft_chain.Commit_log.last (Node_core.log core)) a')

let test_deferred_commit_until_ancestors () =
  let mock, env = Mock.create ~n:4 ~id:0 () in
  let core = Node_core.create env in
  (* Commit block 3 while blocks 1 and 2 are unknown: deferred. *)
  Node_core.note_block core (blk 3);
  Node_core.commit core (blk 3);
  check_int "nothing committed yet" 0 (Node_core.committed core);
  Node_core.note_block core (blk 1);
  check_int "still waiting for block 2" 0 (Node_core.committed core);
  Node_core.note_block core (blk 2);
  check_int "completes once connected" 3 (Node_core.committed core);
  check "commit callbacks ran in order" true
    (List.map (fun (b : Block.t) -> b.Block.height) (Mock.committed mock)
    = [ 1; 2; 3 ])

let test_commit_idempotent () =
  let core = make () in
  Node_core.note_block core (blk 1);
  Node_core.commit core (blk 1);
  Node_core.commit core (blk 1);
  check_int "once" 1 (Node_core.committed core)


(* --- chain segments (synchronizer supply side) ------------------------------- *)

let test_chain_segment () =
  let core = make () in
  List.iter (fun v -> Node_core.note_block core (blk v)) [ 1; 2; 3; 4 ];
  let seg = Node_core.chain_segment core (blk 3).Block.hash ~max:10 in
  check "oldest first, genesis included" true
    (List.map (fun (b : Block.t) -> b.Block.height) seg = [ 0; 1; 2; 3 ]);
  let capped = Node_core.chain_segment core (blk 4).Block.hash ~max:2 in
  check "max caps the segment" true
    (List.map (fun (b : Block.t) -> b.Block.height) capped = [ 3; 4 ]);
  check "unknown hash yields nothing" true
    (Node_core.chain_segment core (Hash.of_string "nope") ~max:4 = [])

(* The first missing ancestor and its known child's proposer, if any. *)
let missing core =
  match Node_core.first_missing core with
  | (child : Block.t) -> Some (child.Block.parent, child.Block.proposer)
  | exception Not_found -> None

let test_first_missing () =
  let core = make () in
  check "nothing deferred, nothing missing" true
    (missing core = None);
  Node_core.note_block core (blk 3);
  Node_core.commit core (blk 3);
  (match missing core with
  | Some (h, hint) ->
      check "missing hash is block 2's" true (Hash.equal h (blk 2).Block.hash);
      check_int "hint is the child's proposer" (blk 3).Block.proposer hint
  | None -> Alcotest.fail "expected a missing ancestor");
  Node_core.note_block core (blk 2);
  (match missing core with
  | Some (h, _) -> check "walks deeper" true (Hash.equal h (blk 1).Block.hash)
  | None -> Alcotest.fail "block 1 still missing");
  Node_core.note_block core (blk 1);
  check "resolved" true (missing core = None)


(* --- Synchronizer policy -------------------------------------------------------- *)

let test_sync_retry_rotates_targets () =
  (* The first request goes to the hinted proposer; if the gap persists the
     retry timer rotates to other peers (the hint may be Byzantine). *)
  let mock, env = Mock.create ~n:4 ~id:0 ~delta:100. () in
  let core = Node_core.create env in
  let sync =
    Sync.create ~core ~env
      ~make_request:(fun hash -> Message.Block_request { hash })
      ~make_response:(fun blocks -> Message.Blocks_response { blocks })
  in
  (* Defer a commit on block 3 (blocks 1-2 missing; hint = blk 3's proposer,
     node 2). *)
  Node_core.note_block core (blk 3);
  Node_core.commit core (blk 3);
  Sync.poke sync;
  check_int "one request so far" 1 (Sync.requests_sent sync);
  (* The retry timer fires after delta; still missing, so it re-requests
     from the next peer. *)
  Mock.advance mock ~to_:150.;
  check "retried" true (Sync.requests_sent sync >= 2);
  let targets =
    List.filter_map
      (function dst, Message.Block_request _ -> Some dst | _ -> None)
      (Mock.unicasts mock)
  in
  check "requests avoid self" true (List.for_all (fun d -> d <> 0) targets);
  check "first went to the hinted proposer" true
    (match targets with first :: _ -> first = (blk 3).Block.proposer | [] -> false);
  check "targets rotate on retry" true
    (List.length (List.sort_uniq compare targets) >= 2);
  (* Once the gap closes, no more requests. *)
  Node_core.note_block core (blk 1);
  Node_core.note_block core (blk 2);
  let before = Sync.requests_sent sync in
  Mock.advance mock ~to_:600.;
  check_int "quiet after resolution" before (Sync.requests_sent sync)

let make_sync ~id () =
  let mock, env = Mock.create ~n:4 ~id ~delta:100. () in
  let core = Node_core.create env in
  let sync =
    Sync.create ~core ~env
      ~make_request:(fun hash -> Message.Block_request { hash })
      ~make_response:(fun blocks -> Message.Blocks_response { blocks })
  in
  (mock, core, sync)

let test_sync_truncated_helper_store () =
  (* A helper that lacks the requested block stays silent; one whose store is
     truncated below it serves just the suffix it holds, which narrows the
     requester's gap and redirects it at the deeper missing ancestor. *)
  let helper_mock, helper_core, helper_sync = make_sync ~id:1 () in
  Sync.handle_request helper_sync ~src:3 (blk 2).Block.hash;
  check_int "unknown hash: no response" 0 (List.length (Mock.sent helper_mock));
  Node_core.note_block helper_core (blk 3);
  Node_core.note_block helper_core (blk 4);
  Sync.handle_request helper_sync ~src:3 (blk 4).Block.hash;
  (match Mock.sent helper_mock with
  | [ Mock.Unicast (3, Message.Blocks_response { blocks }) ] ->
      check "serves only the held suffix, oldest first" true
        (List.map (fun (b : Block.t) -> b.Block.view) blocks = [ 3; 4 ])
  | _ -> Alcotest.fail "expected one Blocks_response to the requester");
  let _mock, core, sync = make_sync ~id:3 () in
  Node_core.note_block core (blk 5);
  Node_core.commit core (blk 5);
  Sync.poke sync;
  check_int "asked once" 1 (Sync.requests_sent sync);
  Sync.handle_response sync [ blk 3; blk 4 ];
  check "partial batch leaves the commit deferred" true
    (missing core <> None);
  check_int "re-asked immediately for the deeper gap" 2
    (Sync.requests_sent sync);
  check_int "nothing committed yet" 0 (Node_core.committed core)

let test_sync_duplicate_responses () =
  (* Responses carry no request ids, so retries can produce duplicate and
     overlapping batches; ingestion must be idempotent. *)
  let _mock, core, sync = make_sync ~id:3 () in
  Node_core.note_block core (blk 5);
  Node_core.commit core (blk 5);
  Sync.poke sync;
  let batch = [ blk 1; blk 2; blk 3; blk 4 ] in
  Sync.handle_response sync batch;
  check_int "deferred commit completed" 5 (Node_core.committed core);
  check "gap closed" true (missing core = None);
  let asked = Sync.requests_sent sync in
  Sync.handle_response sync batch;
  Sync.handle_response sync [ blk 2; blk 3 ];
  check_int "duplicate batches commit nothing further" 5
    (Node_core.committed core);
  check_int "and trigger no new requests" asked (Sync.requests_sent sync)

let test_sync_response_after_advance () =
  (* A slow helper's response can land after the requester already filled
     the gap from someone else (or never asked at all): it must be a no-op,
     and the synchronizer must settle back to its quiescent state. *)
  let mock, core, sync = make_sync ~id:3 () in
  Node_core.note_block core (blk 5);
  Node_core.commit core (blk 5);
  Sync.poke sync;
  Sync.handle_response sync [ blk 1; blk 2; blk 3; blk 4 ];
  check_int "committed through the tip" 5 (Node_core.committed core);
  (* The stale retransmission arrives well after resolution. *)
  Mock.advance mock ~to_:500.;
  let asked = Sync.requests_sent sync in
  Sync.handle_response sync [ blk 1; blk 2 ];
  check_int "late batch commits nothing" 5 (Node_core.committed core);
  check_int "and asks for nothing" asked (Sync.requests_sent sync);
  (* Control state is indistinguishable from a fresh synchronizer once the
     retry timer has lapsed (the model checker relies on this digest). *)
  let _, _, fresh = make_sync ~id:3 () in
  check "digest settles to the fresh state" true
    (Bft_types.Hash.equal (Sync.state_hash sync) (Sync.state_hash fresh))

(* --- commits walk only the uncommitted suffix ------------------------------ *)

(* A fork off genesis whose first block is missing, under a committed
   prefix of height 3: the commit's walk meets the prefix at a different
   hash (height 3), so it falls back to a full walk, which stops at the
   gap.  The commit stays deferred; once the gap fills, the retried commit
   reaches the commit log, which refuses the fork. *)
let test_fork_fallback () =
  let core = make () in
  List.iter (fun v -> Node_core.note_block core (blk v)) [ 1; 2; 3 ];
  Node_core.commit core (blk 3);
  check_int "prefix committed" 3 (Node_core.committed core);
  let g1 = B.block ~view:7 ~payload_id:71 ~parent:Block.genesis () in
  let g2 = B.block ~view:8 ~payload_id:72 ~parent:g1 () in
  let g3 = B.block ~view:9 ~payload_id:73 ~parent:g2 () in
  let g4 = B.block ~view:10 ~payload_id:74 ~parent:g3 () in
  List.iter (Node_core.note_block core) [ g2; g3; g4 ];
  Node_core.commit core g4;
  check "fork with a gap stays deferred" true (missing core <> None);
  check_int "nothing more committed" 3 (Node_core.committed core);
  check "filling the gap raises Safety_violation" true
    (try
       Node_core.note_block core g1;
       false
     with Bft_chain.Commit_log.Safety_violation _ -> true)

(* The chain [1 .. 4100] for the height-independence rows. *)
let long_chain = Array.of_list (Block.genesis :: B.chain 4100)

let minor_words = Test_support.Alloc.minor_words

(* A node that has committed [long_chain] up to height [h]. *)
let committed_to h =
  let core = make () in
  for i = 1 to h do
    Node_core.note_block core long_chain.(i)
  done;
  Node_core.commit core long_chain.(h);
  check_int "prefix committed" h (Node_core.committed core);
  core

(* Committing the next block allocates the same at h=64 as at h=4096.
   While commits rebuilt the chain from genesis to test that it connects,
   this delta grew linearly with h (one list cell per block). *)
let test_commit_next_height_independent () =
  let next h =
    let core = committed_to h in
    Node_core.note_block core long_chain.(h + 1);
    let words =
      minor_words (fun () -> Node_core.commit core long_chain.(h + 1))
    in
    check_int "next block committed" (h + 1) (Node_core.committed core);
    words
  in
  Alcotest.(check (float 0.)) "same minor words at h=64 and h=4096"
    (next 64) (next 4096)

(* Likewise for a commit deferred across a 3-block gap and completed by
   the [note_block] that fills it.  While commits rebuilt the chain from
   genesis, this delta too grew linearly with h: the completing retry
   walked the whole chain. *)
let test_deferred_commit_height_independent () =
  let across_gap h =
    let core = committed_to h in
    let top = long_chain.(h + 4) in
    Node_core.note_block core top;
    let words =
      minor_words (fun () ->
          Node_core.commit core top;
          for i = h + 1 to h + 3 do
            Node_core.note_block core long_chain.(i)
          done)
    in
    check_int "gap filled and committed" (h + 4) (Node_core.committed core);
    words
  in
  Alcotest.(check (float 0.)) "same minor words at h=64 and h=4096"
    (across_gap 64) (across_gap 4096)

(* --- Commit Moonshot's commit votes ------------------------------------------ *)

(* A Commit Moonshot node with n = 7 (f = 2, quorum 5) in view 1. *)
let commit_node () =
  let mock, env = Mock.create ~n:7 ~id:6 () in
  let node = Pipelined_node.create ~precommit:true env in
  Mock.attach mock (fun ~src msg -> Pipelined_node.handle node ~src msg);
  Pipelined_node.start node;
  node

let commit_vote ~view block = Message.Commit_vote { view; block }

(* Only a commit vote at its block's view counts.  Counted by block hash
   alone, the f mismatched votes would join the matching ones and commit
   the block at the (f+1)-th matching vote, and n mismatched votes would
   commit it with no matching vote at all. *)
let test_commit_vote_view_must_match () =
  let b = blk 1 in
  let node = commit_node () in
  Pipelined_node.handle node ~src:0 (commit_vote ~view:2 b);
  Pipelined_node.handle node ~src:1 (commit_vote ~view:5 b);
  List.iteri
    (fun i src ->
      check_int
        (Printf.sprintf "nothing committed after %d matching votes" i)
        0
        (Pipelined_node.committed node);
      Pipelined_node.handle node ~src (commit_vote ~view:1 b))
    [ 2; 3; 4; 5; 6 ];
  check_int "committed at the 2f+1-th matching vote" 1
    (Pipelined_node.committed node);
  let node = commit_node () in
  for src = 0 to 6 do
    Pipelined_node.handle node ~src (commit_vote ~view:2 b);
    Pipelined_node.handle node ~src (commit_vote ~view:(3 + src) b)
  done;
  check_int "mismatched votes never commit" 0 (Pipelined_node.committed node)

(* --- Allocation pins --------------------------------------------------------- *)

(* The socket path's per-message costs.  Hashing a block once boxed an
   [Int64] for every byte it mixed: creating a block allocated ~1.7 kB
   and decoding a 16-byte vote (whose block is re-hashed) ~2 kB. *)

let test_block_create_alloc () =
  let parent = blk 1 in
  let payload = Bft_types.Payload.make ~id:7 ~size_bytes:180 in
  let bytes =
    Test_support.Alloc.minor_bytes (fun () ->
        ignore
          (Sys.opaque_identity
             (Block.create ~parent ~view:5 ~proposer:1 ~payload)))
  in
  if bytes > 128. then Alcotest.failf "Block.create allocates %.0f B > 128 B" bytes

let vote = Message.Vote { kind = Vote_kind.Normal; block = blk 2 }

(* Each varint read once built a recursive closure, and the frame envelope
   another two: decoding this vote allocated 440 B (now 192 B). *)
let test_vote_decode_alloc () =
  let body = Codec.encode vote in
  let bytes =
    Test_support.Alloc.minor_bytes (fun () ->
        ignore (Sys.opaque_identity (Codec.decode body)))
  in
  if bytes > 256. then
    Alcotest.failf "decoding a vote allocates %.0f B > 256 B" bytes

(* An encoding is the writer and its one exact-size output string (56 B
   for this 16-byte vote).  The [Buffer] writer allocated 130 B plus the
   payload up front, closures per varint, then copied the buffer out: 440
   B for the vote, 432 B for Jolteon's. *)
let encode_bytes encode m =
  Test_support.Alloc.minor_bytes (fun () ->
      ignore (Sys.opaque_identity (encode m)))

let test_vote_encode_alloc () =
  let bytes = encode_bytes Codec.encode_msg vote in
  if bytes > 128. then
    Alcotest.failf "encoding a vote allocates %.0f B > 128 B" bytes

let test_jolteon_vote_encode_alloc () =
  let bytes =
    encode_bytes Jolteon.Jolteon_codec.encode_msg
      (Jolteon.Jolteon_msg.Vote { block = blk 2 })
  in
  if bytes > 128. then
    Alcotest.failf "encoding a Jolteon vote allocates %.0f B > 128 B" bytes

(* Encoding a proposal allocates the same for a 300 B and a 1 MB payload,
   its writer and its exact-size body: the body carries the payload's
   size, and the transport sends the payload's bytes as the frame's
   trailer.  While the body held the payload as padding, encoding the 1 MB
   proposal allocated a 1 MB body, straight on the major heap, where minor
   words never saw it. *)
let test_proposal_encode_alloc () =
  let encode size_bytes =
    let payload = Payload.make ~id:9 ~size_bytes in
    let block = Block.create ~parent:(blk 2) ~view:3 ~proposer:3 ~payload in
    let m = Message.Propose { block; cert = cert_of 2 } in
    let body = String.length (Codec.encode_msg m) in
    let bytes =
      Test_support.Alloc.bytes (fun () ->
          ignore (Sys.opaque_identity (Codec.encode_msg m)))
    in
    if bytes > float_of_int (body + 128) then
      Alcotest.failf "encoding a %d-byte proposal body allocates %.0f B > %d B"
        body bytes (body + 128);
    bytes
  in
  Alcotest.(check (float 0.)) "same bytes for 300 B and 1 MB payloads"
    (encode 300) (encode 1_000_000)

(* The simulator's per-vote path.  A vote below its quorum, commit votes
   included, costs nothing once its key exists: both are counted by the
   block hash's int.  While commit votes were counted by a (view, hash)
   pair, each one allocated that 24 B tuple. *)
let test_below_quorum_votes_alloc () =
  let node = commit_node () in
  let b = blk 1 in
  let cv = commit_vote ~view:1 b in
  let v = Message.Vote { kind = Vote_kind.Normal; block = b } in
  Pipelined_node.handle node ~src:0 cv;
  Pipelined_node.handle node ~src:0 v;
  Alcotest.(check (float 0.)) "no words for a below-quorum commit vote" 0.
    (minor_words (fun () -> Pipelined_node.handle node ~src:1 cv));
  Alcotest.(check (float 0.)) "no words for a below-quorum vote" 0.
    (minor_words (fun () -> Pipelined_node.handle node ~src:1 v))

(* Buffering a proposal for a future view costs its constructor (16 B):
   the shared view buffer stores it in an array slot.  Copying the
   [pending] table to sweep it on every proposal made this 336 B, and a
   table of lists 56 B. *)
let test_future_proposal_buffer_alloc () =
  let node = commit_node () in
  let msg = Message.Opt_propose { block = blk 4 } in
  Alcotest.(check (float 0.)) "the constructor's 16 B" 16.
    (Test_support.Alloc.minor_bytes (fun () ->
         Pipelined_node.handle node ~src:3 msg))

(* An environment whose callbacks allocate nothing, so that a pin reads
   the node's own words only. *)
let quiet_env (type m) ~n ~id : m Env.t =
  let cancel () = () in
  let _, env = Mock.create ~n ~id () in
  {
    env with
    Env.send = (fun _ _ -> ());
    multicast = (fun _ -> ());
    set_timer = (fun _ _ -> cancel);
    on_commit = ignore;
    on_propose = ignore;
  }

let quiet_core ?(n = 4) () = Node_core.create (quiet_env ~n ~id:0)

(* A new block costs the store's table cell (32 B) and nothing else.  The
   parent-to-children index that only tests read added a list cell and a
   second table cell (88 B). *)
let test_new_block_alloc () =
  let core = quiet_core () in
  let b = blk 1 in
  Alcotest.(check (float 0.)) "one table cell" 4.
    (minor_words (fun () -> Node_core.note_block core b))

(* Committing the next height allocates nothing: the walk looks blocks up
   without an option per step and appends while it unwinds.  It allocated
   a [Some] per step and a list cell per new block. *)
let test_commit_next_alloc () =
  let core = quiet_core () in
  for i = 1 to 65 do
    Node_core.note_block core long_chain.(i)
  done;
  Node_core.commit core long_chain.(64);
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () -> Node_core.commit core long_chain.(65)));
  check_int "committed" 65 (Node_core.committed core)

(* A certificate that completes a two-chain commits its parent without list
   or option garbage: each bottom is committed as the walk finds it.
   Collecting them first cost a [Some] and a list cell per bottom. *)
let test_two_chain_commit_alloc () =
  let core = quiet_core () in
  List.iter (fun v -> ignore (Node_core.record_cert core (cert_of v))) [ 1; 2; 3 ];
  Node_core.commit_chains core ~depth:2 (cert_of 3);
  let c = cert_of 4 in
  ignore (Node_core.record_cert core c);
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () -> Node_core.commit_chains core ~depth:2 c));
  check_int "committed through view 3" 3 (Node_core.committed core)

(* The first vote on a cold accumulator at n = 100 allocates its table
   of eight slots (keys and tallies, 9 words each) and the key's tally
   (count and four words of signer bits: 6 words).  While keys lived in a
   hash table, every key cost its tally and a table cell (10 words). *)
let test_first_vote_alloc () =
  let core = quiet_core ~n:100 () in
  let b = blk 1 in
  Node_core.note_block core b;
  Alcotest.(check (float 0.)) "the table and the key's tally" 24.
    (minor_words (fun () ->
         ignore (Node_core.add_vote core ~signer:5 ~kind:Vote_kind.Normal b)))

(* Core [core] at n = 100 after all 100 signers voted for [blk 1]: the key
   completed at the 67th vote, its tally waits for the next new key, and
   the key is in the ring of completed keys. *)
let retired_key_core () =
  let core = quiet_core ~n:100 () in
  let b = blk 1 in
  for signer = 0 to 99 do
    ignore (Node_core.add_vote core ~signer ~kind:Vote_kind.Normal b)
  done;
  core

(* A new key that takes a closed tally's array costs nothing.  While keys
   stayed in a hash table it cost the table cell (32 B), and while every
   key made its own array 80 B. *)
let test_recycled_key_alloc () =
  let core = retired_key_core () in
  let b = blk 2 in
  Node_core.note_block core b;
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () ->
         ignore (Node_core.add_vote core ~signer:5 ~kind:Vote_kind.Normal b)))

(* A vote on a key in the ring answers without a tally: no certificate,
   nothing allocated, and [Already_complete] for every signer, one that
   counted included. *)
let test_retired_key_vote_alloc () =
  let core = retired_key_core () in
  let b = blk 1 in
  let result = ref (Some Cert.genesis) in
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () ->
         result := Node_core.add_vote core ~signer:5 ~kind:Vote_kind.Normal b));
  check "no certificate" true (!result = None);
  let acc = Bft_crypto.Accumulator.create ~n:100 ~threshold:67 in
  for signer = 0 to 99 do
    ignore (Bft_crypto.Accumulator.add acc 1 ~signer)
  done;
  let outcome = ref (Bft_crypto.Accumulator.Added 0) in
  Alcotest.(check (float 0.)) "no words in the accumulator" 0.
    (minor_words (fun () ->
         outcome := Bft_crypto.Accumulator.add acc 1 ~signer:5));
  check "already complete" true
    (!outcome = Bft_crypto.Accumulator.Already_complete)

(* Blocks for keys of their own: views 1 .. 40. *)
let many_blocks = Array.of_list (B.chain 40)

(* Twenty keys completed one after another at n = 100, so the ring is full
   and has pushed keys out: the next new key still costs nothing, its
   tally off the free stack and its slot in the table. *)
let test_warm_new_key_alloc () =
  let core = quiet_core ~n:100 () in
  for i = 0 to 19 do
    for signer = 0 to 66 do
      ignore
        (Node_core.add_vote core ~signer ~kind:Vote_kind.Normal many_blocks.(i))
    done
  done;
  let b = many_blocks.(20) in
  Node_core.note_block core b;
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () ->
         ignore (Node_core.add_vote core ~signer:5 ~kind:Vote_kind.Normal b)))

(* The vote that completes a quorum for a certificate the node already
   holds (here by gossip, before its own tally filled) makes none: every
   caller would hand it to [record_cert], which refuses it.  Building it
   cost 7 words.  [retired_key_core] has completed a key, so the ring and
   the free stack exist. *)
let test_held_cert_vote_alloc () =
  let core = retired_key_core () in
  let b = blk 2 in
  check "gossiped certificate recorded" true
    (Node_core.record_cert core (B.cert ~signers:67 b));
  for signer = 0 to 65 do
    ignore (Node_core.add_vote core ~signer ~kind:Vote_kind.Normal b)
  done;
  let result = ref (Some Cert.genesis) in
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () ->
         result := Node_core.add_vote core ~signer:66 ~kind:Vote_kind.Normal b));
  check "no certificate" true (!result = None);
  check "an Opt quorum still forms its own" true
    (let made = ref None in
     for signer = 0 to 66 do
       match Node_core.add_vote core ~signer ~kind:Vote_kind.Opt b with
       | Some c -> made := Some c
       | None -> ()
     done;
     match !made with
     | Some c -> Vote_kind.equal c.Cert.kind Vote_kind.Opt
     | None -> false)

(* Late votes on a key pushed out of the ring open an inert tally: the
   n - quorum signers that missed the quorum plus f Byzantine replays of
   signers in it are 2f, short of the quorum n - f.  At n = 100 (quorum
   67) and at n = 5 (quorum 4) they form no certificate, and as commit
   votes they commit nothing. *)
let test_late_votes_after_eviction () =
  List.iter
    (fun n ->
      let label = Printf.sprintf "n=%d: %s" n in
      let f = (n - 1) / 3 in
      let quorum = n - f in
      let late_votes vote =
        for signer = quorum to n - 1 do
          vote ~signer many_blocks.(0)
        done;
        for signer = 0 to f - 1 do
          vote ~signer many_blocks.(0)
        done
      in
      let fill vote =
        for i = 0 to Bft_crypto.Accumulator.ring_size do
          for signer = 0 to quorum - 1 do
            vote ~signer many_blocks.(i)
          done
        done
      in
      let core = quiet_core ~n () in
      let formed = ref 0 in
      let vote ~signer b =
        match Node_core.add_vote core ~signer ~kind:Vote_kind.Normal b with
        | Some c ->
            incr formed;
            ignore (Node_core.record_cert core c)
        | None -> ()
      in
      fill vote;
      check_int (label "one certificate per key")
        (Bft_crypto.Accumulator.ring_size + 1)
        !formed;
      late_votes vote;
      check_int (label "no certificate from late votes")
        (Bft_crypto.Accumulator.ring_size + 1)
        !formed;
      let commits = ref 0 in
      let env =
        { (quiet_env ~n ~id:0) with Env.on_commit = (fun _ -> incr commits) }
      in
      let node = Pipelined_node.create ~precommit:true env in
      Pipelined_node.start node;
      let vote ~signer (b : Block.t) =
        Pipelined_node.handle node ~src:signer
          (commit_vote ~view:b.Block.view b)
      in
      fill vote;
      let before = !commits in
      check_int (label "every filled key committed")
        (Bft_crypto.Accumulator.ring_size + 1)
        before;
      late_votes vote;
      check_int (label "late commit votes commit nothing") before !commits)
    [ 100; 5 ]

(* A certificate gossiped for a view far past any reached, 2^40, files in
   the sparse overflow instead of growing the view-indexed array to 8 TB
   ([Out_of_memory]): a Pipelined node handles it within 1 KB (584 B: the
   sparse table, its entry and entering the next view) and still reads
   the certificate's view as its high one, and views a run reaches stay
   in the array. *)
let test_far_future_cert () =
  let far = 1 lsl 40 in
  let b = B.block ~view:far ~parent:(blk 1) () in
  let node = Pipelined_node.create ~precommit:true (quiet_env ~n:4 ~id:0) in
  Pipelined_node.start node;
  let bytes =
    Bft_obs.Alloc.measure (fun () ->
        Pipelined_node.handle node ~src:1 (Message.Cert_gossip (B.cert b)))
  in
  if bytes > 1024. then
    Alcotest.failf "a far-future certificate allocates %.0f B > 1024 B" bytes;
  check_int "entered the view after it" (far + 1)
    (Pipelined_node.current_view node);
  let core = quiet_core () in
  check "recorded" true (Node_core.record_cert core (B.cert b));
  check "on file" false (Node_core.record_cert core (B.cert b));
  check_int "the high certificate" far (Node_core.high_cert core).Cert.view;
  List.iter
    (fun v -> check "a reached view" true (Node_core.record_cert core (cert_of v)))
    [ 1; 2; 3 ];
  Node_core.commit_chains core ~depth:2 (cert_of 3);
  check_int "the reached views still commit" 2 (Node_core.committed core)

(* A certificate for a new view costs its list cell (24 B): the table is
   an array indexed by view.  A hash table cost a cell per view too
   (56 B). *)
let test_new_view_cert_alloc () =
  let core = quiet_core () in
  let c = cert_of 1 in
  Node_core.note_block core c.Cert.block;
  Alcotest.(check (float 0.)) "the list cell" 3.
    (minor_words (fun () -> ignore (Node_core.record_cert core c)))

(* A commit that does not complete its block's quorum allocates nothing:
   the clock is read only by the one that does, and the lookups raise
   instead of returning options.  Two [Some]s and a boxed time cost
   48 B. *)
let test_commit_below_quorum_alloc () =
  let m = Bft_obs.Metrics.create ~n:4 () in
  let b = blk 1 in
  let clock = [| 0. |] in
  let now () = clock.(0) in
  Bft_obs.Metrics.on_propose m ~now b;
  clock.(0) <- 10.;
  Bft_obs.Metrics.on_commit m ~node:0 ~now b;
  clock.(0) <- 11.;
  Alcotest.(check (float 0.)) "no words" 0.
    (minor_words (fun () -> Bft_obs.Metrics.on_commit m ~node:1 ~now b))

(* Entering a view drops the proposals buffered for older views in place.
   Pipelined Moonshot drops them when it next buffers: here, at view 3,
   a proposal for view 4 drops views 1 and 2 and costs only its own
   constructor (16 B).  Sweeping a table of lists cost a closure and a
   [Some] per kept view. *)
let test_pipelined_sweep_alloc () =
  let node = Pipelined_node.create ~precommit:true (quiet_env ~n:4 ~id:3) in
  Pipelined_node.start node;
  let handle msg = Pipelined_node.handle node ~src:0 msg in
  handle (Message.Opt_propose { block = blk 1 });
  handle (Message.Opt_propose { block = blk 2 });
  handle (Message.Cert_gossip (cert_of 1));
  handle (Message.Cert_gossip (cert_of 2));
  check_int "in view 3" 3 (Pipelined_node.current_view node);
  handle (Message.Vote { kind = Vote_kind.Normal; block = blk 4 });
  let msg = Message.Opt_propose { block = blk 4 } in
  Alcotest.(check (float 0.)) "the constructor's 2 words" 2.
    (minor_words (fun () -> handle msg))

(* Jolteon drops them on entering a round.  Node 2 in round 2 has voted
   for [blk 2]; the proposal of [blk 4] carries the QC for [blk 3] and
   moves it to round 4, dropping round 2's buffer.  That costs the
   message and its buffered constructor (4 words each), the QC's list cell
   in the certificate table (3 words), the [Via_qc] that enters the round
   and the vote it sends (2 words each): 15 words, none for the drop.  A
   certificate table keyed by view added a table cell (19 words), and
   sweeping a table of lists a closure and a [Some] per kept round. *)
let test_jolteon_sweep_alloc () =
  let node = Jolteon.Jolteon_node.create (quiet_env ~n:4 ~id:2) in
  Jolteon.Jolteon_node.start node;
  let handle msg = Jolteon.Jolteon_node.handle node ~src:1 msg in
  let propose v =
    Jolteon.Jolteon_msg.Propose { block = blk v; qc = cert_of (v - 1); tc = None }
  in
  handle (propose 2);
  handle (Jolteon.Jolteon_msg.Vote { block = blk 3 });
  handle (Jolteon.Jolteon_msg.Vote { block = blk 4 });
  let block = blk 4 and qc = cert_of 3 in
  Alcotest.(check (float 0.)) "15 words" 15.
    (minor_words (fun () ->
         handle (Jolteon.Jolteon_msg.Propose { block; qc; tc = None })))

(* The simulator prices every delivered message with its protocol's
   [cpu_cost], which writes the cost into a float slot and allocates
   nothing, also where the cost is computed (a proposal hashes its payload,
   a fallback proposal verifies its certificate's and TC's signatures, a
   sync response folds over its blocks).  While [cpu_cost] returned the
   cost, the boxed result cost an opt proposal 4 words and a Jolteon
   proposal 6. *)
let cost_slot = [| 0. |]

let test_cpu_cost_alloc () =
  let b =
    Block.create ~parent:(blk 1) ~view:2 ~proposer:1
      ~payload:(Payload.make ~id:7 ~size_bytes:1800)
  in
  let cert = cert_of 1 and tc = B.tc ~signers:3 2 in
  let pin name cpu_cost m =
    Alcotest.(check (float 0.)) (name ^ ": 0 words") 0.
      (minor_words (fun () -> cpu_cost m cost_slot 0));
    check (name ^ ": a positive cost") true (cost_slot.(0) > 0.)
  in
  pin "opt proposal" Message.cpu_cost (Message.Opt_propose { block = b });
  pin "normal proposal" Message.cpu_cost (Message.Propose { block = b; cert });
  pin "fallback proposal" Message.cpu_cost
    (Message.Fb_propose { block = b; cert; tc });
  pin "vote" Message.cpu_cost
    (Message.Vote { kind = Vote_kind.Normal; block = b });
  pin "commit vote" Message.cpu_cost
    (Message.Commit_vote { view = 2; block = b });
  pin "Jolteon proposal" Jolteon.Jolteon_msg.cpu_cost
    (Jolteon.Jolteon_msg.Propose { block = b; qc = cert; tc = Some tc });
  pin "two-block sync response" Message.cpu_cost
    (Message.Blocks_response { blocks = [ blk 1; b ] })

(* After a handler records, the executor encodes one fresh snapshot: the
   record's option, the cached string's option, the writer and the
   string (104 B).  With a [Buffer] writer and a closure per varint this
   allocated 728 B for a 34-byte snapshot. *)
let test_wal_encode_alloc () =
  let wal = Wal.create () in
  let state =
    {
      Wal.cur_view = 3;
      lock = cert_of 2;
      timeout_view = 2;
      voted_opt = Some (blk 3);
      voted_main = true;
    }
  in
  let bytes =
    Test_support.Alloc.minor_bytes (fun () ->
        Wal.record wal state;
        ignore (Sys.opaque_identity (Codec.encode_wal wal)))
  in
  if bytes > 128. then
    Alcotest.failf "recording and encoding a WAL snapshot allocates %.0f B > 128 B"
      bytes

(* The TCP executor asks for the WAL snapshot once per loop iteration;
   while nothing was recorded that must cost nothing. *)
let test_unchanged_wal_encode_alloc () =
  let wal = Wal.create () in
  Wal.record wal
    {
      Wal.cur_view = 3;
      lock = cert_of 2;
      timeout_view = 2;
      voted_opt = Some (blk 3);
      voted_main = true;
    };
  let first = Codec.encode_wal wal in
  Alcotest.(check (float 0.)) "no bytes on an unchanged WAL" 0.
    (Test_support.Alloc.minor_bytes (fun () ->
         ignore (Sys.opaque_identity (Codec.encode_wal wal))));
  check "same snapshot string" true (Codec.encode_wal wal == first);
  Wal.record wal
    {
      Wal.cur_view = 4;
      lock = cert_of 3;
      timeout_view = 2;
      voted_opt = None;
      voted_main = false;
    };
  let second = Codec.encode_wal wal in
  check "a record invalidates the snapshot" false (String.equal first second);
  match Codec.decode_wal second with
  | Ok w -> check "snapshot decodes to the new record" true
              (Hash.equal (Wal.digest w) (Wal.digest wal))
  | Error e -> Alcotest.fail e

(* --- Timeout_agg ------------------------------------------------------------ *)

(* n = 4: weak quorum 2, quorum 3.  The probe records every TC formed. *)
let make_agg () =
  let _mock, env = Mock.create ~n:4 ~id:0 () in
  let formed = ref [] in
  let probe = function
    | Probe.Tc_formed { view; signers } -> formed := (view, signers) :: !formed
    | _ -> ()
  in
  (Timeout_agg.create { env with Env.probe = Some probe }, formed)

let high_view (tc : Tc.t) = Tc.high_cert_view tc

let test_agg_repeated_sender () =
  let agg, _ = make_agg () in
  check_int "first sender counts" 1
    (Timeout_agg.add agg ~view:5 ~src:1 (Some (cert_of 1)));
  let before = Timeout_agg.entries_digest agg in
  check_int "repeat returns 0" 0
    (Timeout_agg.add agg ~view:5 ~src:1 (Some (cert_of 4)));
  check "repeat changes nothing" true
    (Int64.equal before (Timeout_agg.entries_digest agg));
  check_int "next sender counts 2" 2 (Timeout_agg.add agg ~view:5 ~src:2 None);
  check_int "third sender counts 3" 3 (Timeout_agg.add agg ~view:5 ~src:3 None);
  match Timeout_agg.form_tc agg 5 with
  | Some tc -> check_int "the repeat's higher cert was ignored" 1 (high_view tc)
  | None -> Alcotest.fail "quorum reached without a TC"

let permutations l =
  let rec go = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (go (List.filter (( <> ) x) l)))
          l
  in
  go l

let test_agg_highest_cert_wins () =
  List.iter
    (fun order ->
      let agg, _ = make_agg () in
      List.iteri
        (fun src v ->
          ignore (Timeout_agg.add agg ~view:7 ~src (Some (cert_of v))))
        order;
      match Timeout_agg.form_tc agg 7 with
      | Some tc ->
          check_int
            (Printf.sprintf "order %s"
               (String.concat "," (List.map string_of_int order)))
            3 (high_view tc)
      | None -> Alcotest.fail "quorum reached without a TC")
    (permutations [ 1; 2; 3 ])

let test_agg_amplify_once () =
  let agg, _ = make_agg () in
  check "first ask" true (Timeout_agg.amplify agg 2);
  check "second ask" false (Timeout_agg.amplify agg 2);
  check "another view" true (Timeout_agg.amplify agg 3);
  check "that view again" false (Timeout_agg.amplify agg 3)

let test_agg_tc_once_at_quorum () =
  let agg, formed = make_agg () in
  let step src cert =
    ignore (Timeout_agg.add agg ~view:4 ~src cert);
    Timeout_agg.form_tc agg 4
  in
  check "1 sender: none" true (step 0 (Some (cert_of 2)) = None);
  check "2 senders: none" true (step 1 None = None);
  (match step 2 (Some (cert_of 1)) with
  | Some tc ->
      check_int "TC view" 4 tc.Tc.view;
      check_int "TC signers" 3 tc.Tc.signers;
      check_int "TC proves the highest cert" 2 (high_view tc)
  | None -> Alcotest.fail "third sender should form the TC");
  check "4 senders: none" true (step 3 (Some (cert_of 3)) = None);
  check "asked again: none" true (Timeout_agg.form_tc agg 4 = None);
  check "probed once" true (!formed = [ (4, 3) ]);
  (* Timeouts that prove no lock form a TC without a certificate. *)
  let agg, _ = make_agg () in
  List.iter (fun src -> ignore (Timeout_agg.add agg ~view:1 ~src None)) [ 0; 1; 2 ];
  match Timeout_agg.form_tc agg 1 with
  | Some tc -> check "no cert" true (tc.Tc.high_cert = None)
  | None -> Alcotest.fail "quorum reached without a TC"

let test_agg_digest () =
  let feed agg adds =
    List.iter
      (fun (view, src, v) ->
        ignore (Timeout_agg.add agg ~view ~src (Option.map cert_of v));
        ignore (Timeout_agg.form_tc agg view))
      adds
  in
  let adds =
    [ (3, 0, Some 1); (3, 1, Some 2); (4, 2, None); (3, 2, None); (4, 0, Some 2) ]
  in
  let a, _ = make_agg () and b, _ = make_agg () in
  feed a adds;
  feed b (List.rev adds);
  check "insertion order ignored" true
    (Int64.equal (Timeout_agg.entries_digest a) (Timeout_agg.entries_digest b));
  let formed = Timeout_agg.entries_digest a in
  feed a [ (3, 3, Some 4) ];
  check "sender after the TC ignored" true
    (Int64.equal formed (Timeout_agg.entries_digest a));
  feed a [ (4, 3, None) ];
  check "sender before the TC counted" false
    (Int64.equal formed (Timeout_agg.entries_digest a))

let test_agg_hold () =
  let agg, _ = make_agg () in
  let empty = Timeout_agg.tcs_digest agg in
  check "first TC held" true (Timeout_agg.hold agg (B.tc 3));
  check "second TC for the view refused" false
    (Timeout_agg.hold agg (B.tc ~high_cert:(cert_of 2) 3));
  check "digest covers held TCs" false
    (Int64.equal empty (Timeout_agg.tcs_digest agg))

let () =
  Alcotest.run "node-core"
    [
      ( "votes",
        [
          Alcotest.test_case "genesis preloaded" `Quick test_genesis_preloaded;
          Alcotest.test_case "quorum" `Quick test_add_vote_quorum;
          Alcotest.test_case "dedup + kinds" `Quick test_add_vote_dedup_and_kinds;
        ] );
      ( "certs",
        [
          Alcotest.test_case "record + high" `Quick test_record_cert_and_high;
          Alcotest.test_case "kinds coexist" `Quick
            test_same_view_different_kind_both_recorded;
          Alcotest.test_case "table across growth" `Quick
            test_certs_across_growth;
          Alcotest.test_case "far-future view" `Quick test_far_future_cert;
          Alcotest.test_case "late votes after the ring" `Quick
            test_late_votes_after_eviction;
        ] );
      ( "chain-commits",
        [
          Alcotest.test_case "depth 2" `Quick test_chain_commits_depth2;
          Alcotest.test_case "reverse arrival" `Quick
            test_chain_commits_depth2_reverse_arrival;
          Alcotest.test_case "depth 3" `Quick test_chain_commits_depth3;
          Alcotest.test_case "gaps" `Quick test_chain_commits_gap_blocks;
          Alcotest.test_case "forks" `Quick test_chain_commits_fork_blocks;
          Alcotest.test_case "commit order" `Quick test_chain_commits_order;
          Alcotest.test_case "depth validation" `Quick test_chain_commits_depth_validation;
          Alcotest.test_case "3-chain implies 2-chain" `Quick test_depth3_implies_depth2;
        ] );
      ( "sync-hooks",
        [
          Alcotest.test_case "chain segment" `Quick test_chain_segment;
          Alcotest.test_case "first missing" `Quick test_first_missing;
          Alcotest.test_case "retry rotation" `Quick test_sync_retry_rotates_targets;
          Alcotest.test_case "truncated helper store" `Quick
            test_sync_truncated_helper_store;
          Alcotest.test_case "duplicate responses" `Quick
            test_sync_duplicate_responses;
          Alcotest.test_case "response after advance" `Quick
            test_sync_response_after_advance;
        ] );
      ( "commits",
        [
          Alcotest.test_case "deferred until ancestors" `Quick
            test_deferred_commit_until_ancestors;
          Alcotest.test_case "idempotent" `Quick test_commit_idempotent;
        ] );
      ( "commit-walk",
        [
          Alcotest.test_case "fork fallback" `Quick test_fork_fallback;
          Alcotest.test_case "next block, height-independent" `Quick
            test_commit_next_height_independent;
          Alcotest.test_case "deferred commit, height-independent" `Quick
            test_deferred_commit_height_independent;
        ] );
      ( "commit-votes",
        [
          Alcotest.test_case "view must match the block's" `Quick
            test_commit_vote_view_must_match;
        ] );
      ( "timeout-agg",
        [
          Alcotest.test_case "repeated sender" `Quick test_agg_repeated_sender;
          Alcotest.test_case "highest cert wins" `Quick test_agg_highest_cert_wins;
          Alcotest.test_case "amplify once" `Quick test_agg_amplify_once;
          Alcotest.test_case "one TC at quorum" `Quick test_agg_tc_once_at_quorum;
          Alcotest.test_case "entries digest" `Quick test_agg_digest;
          Alcotest.test_case "held TCs" `Quick test_agg_hold;
        ] );
      ( "alloc-pins",
        [
          Alcotest.test_case "Block.create" `Quick test_block_create_alloc;
          Alcotest.test_case "decode a vote" `Quick test_vote_decode_alloc;
          Alcotest.test_case "encode a vote" `Quick test_vote_encode_alloc;
          Alcotest.test_case "encode a Jolteon vote" `Quick
            test_jolteon_vote_encode_alloc;
          Alcotest.test_case "encode a proposal" `Quick
            test_proposal_encode_alloc;
          Alcotest.test_case "WAL snapshot after a record" `Quick
            test_wal_encode_alloc;
          Alcotest.test_case "unchanged WAL snapshot" `Quick
            test_unchanged_wal_encode_alloc;
          Alcotest.test_case "below-quorum votes" `Quick
            test_below_quorum_votes_alloc;
          Alcotest.test_case "future-view proposal" `Quick
            test_future_proposal_buffer_alloc;
          Alcotest.test_case "new block" `Quick test_new_block_alloc;
          Alcotest.test_case "commit the next height" `Quick
            test_commit_next_alloc;
          Alcotest.test_case "two-chain commit" `Quick
            test_two_chain_commit_alloc;
          Alcotest.test_case "first vote on a key at n = 100" `Quick
            test_first_vote_alloc;
          Alcotest.test_case "new key on a retired array at n = 100" `Quick
            test_recycled_key_alloc;
          Alcotest.test_case "vote on a retired key" `Quick
            test_retired_key_vote_alloc;
          Alcotest.test_case "new key on a warm accumulator at n = 100" `Quick
            test_warm_new_key_alloc;
          Alcotest.test_case "quorum for a held certificate at n = 100" `Quick
            test_held_cert_vote_alloc;
          Alcotest.test_case "certificate for a new view" `Quick
            test_new_view_cert_alloc;
          Alcotest.test_case "commit below its quorum" `Quick
            test_commit_below_quorum_alloc;
          Alcotest.test_case "Pipelined view sweep" `Quick
            test_pipelined_sweep_alloc;
          Alcotest.test_case "Jolteon round sweep" `Quick
            test_jolteon_sweep_alloc;
          Alcotest.test_case "CPU cost writers" `Quick test_cpu_cost_alloc;
        ] );
    ]
