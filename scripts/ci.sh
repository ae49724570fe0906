#!/usr/bin/env bash
# Tier-1 gate. This script IS the CI definition: .github/workflows/ci.yml
# does nothing but install a switch and run it, so a green local run of
#
#     ./scripts/ci.sh
#
# means a green CI run (modulo toolchain version skew).  Keep the two in
# lockstep by keeping all logic here and none in the workflow.
#
# Steps:
#   0. bench files            -- no committed BENCH_*.json may record
#                                "events": 0, "blocks": 0 or "states": 0
#                                (a bench file written by a run that
#                                measured nothing), and each must hold a
#                                "provenance" object (commit, OCaml
#                                version, domains, command line: how it
#                                was produced)
#   1. dune build @all        -- every library, executable and example
#   2. dune runtest           -- unit/property/integration suites plus the
#                                smoke aliases (bench smoke, mc-smoke,
#                                mc-swarm-smoke, net smoke, benchmark smoke,
#                                and CLI smoke, which includes the explore
#                                smoke: a small swarm over a healthy world
#                                must find no counterexample)
#   3. dune build @doc        -- only when odoc is installed; docs are part
#                                of the gate where available, skipped (with
#                                a notice) where not
#   4. git status --porcelain -- the build must not dirty the checkout:
#                                generated artefacts belong under _build,
#                                committed fixtures (BENCH_*.json) must not
#                                be clobbered by tests.  Compared against a
#                                snapshot taken before the build, so running
#                                the gate on a work-in-progress tree only
#                                flags dirt the build itself introduced
#
# On exit, pass or fail, the script prints each step's wall seconds and
# the line counts of the .ml/.mli files in lib/, bin/, bench/ and test/.
#
# Allocation is gated in step 2, exactly (Bft_obs.Alloc counts a
# deterministic run's words, so a pin fails on one extra allocation):
#   - test_node_core's `alloc-pins` group: per-call costs of the codec, the
#     WAL snapshot and the per-block chain path (new block, next-height
#     commit, two-chain commit, first vote on a key, proposal buffers) and
#     of the per-quorum bookkeeping at n = 100: a new key on a closed
#     tally's array and on a warm accumulator (0 B), a vote on a key in the
#     ring of completed keys (0 B), the quorum-completing vote for a
#     certificate the node holds (0 B, no certificate built), a
#     certificate for a new view (its list cell, 24 B) and a commit below
#     its quorum in Metrics (0 B); and writing each protocol's CPU cost
#     into its float slot (opt, normal and fallback proposals, votes,
#     commit votes, a Jolteon proposal, a sync response: 0 B);
#   - test_properties' `alloc` budgets: bytes per event or per committed
#     block of whole simulator runs, each two to three times its reading;
#   - test_sim's `alloc` group (engine fan-out, link windows, a warm
#     Table II fan-out with computed CPU costs at exactly 0 B, a fresh
#     fan-out run at exactly 212 words) and test_net's "send and release
#     allocate nothing" (the socket sender); test_sim's engine case
#     "crashes past the epoch width" probes, at its exact boundary, the
#     crash bound that packing a run's seqs into its slots sets;
#   - test_sim's "timer re-arm allocates nothing" and test_net's executor
#     "re-arming allocates nothing": re-arming a node's timer callback
#     after it fired or was cancelled allocates 0 B on either substrate;
#     both substrates arm through lib/sim's Timer_row, whose own group in
#     test_sim (`timer-row`) pins a claimed idle record and a memoized
#     wrapper at 0 B and a fresh record at 10 words, and checks the row's overflow, the armed flag and
#     the seq test that the substrates' pins rely on;
#   - test_net's "identical bodies decode once" (the executor's body memo:
#     a remembered vote body allocates at least 150 B less than a decoded
#     one) and "self-delivery allocates nothing" (the executor's ring of
#     messages a node sends itself).
# Only wall-clock performance stays outside the gate: BENCHMARK.json's
# `compare` (see benchmark/README.md) judges it on medians of repeated
# runs rather than a single wall-clock floor.

set -euo pipefail
cd "$(dirname "$0")/.."

# Each step's wall seconds, printed as a summary when the script exits
# (pass or fail), so every CI log shows where the gate's time goes.
step_names=()
step_secs=()
step_start=
current=
finish_step() {
  if [ -n "$current" ]; then
    step_names+=("$current")
    step_secs+=($(( $(date +%s) - step_start )))
  fi
}
step() {
  finish_step
  current="$*"
  step_start=$(date +%s)
  printf '\n==> %s\n' "$*"
}
summary() {
  status=$?
  finish_step
  current=
  printf '\n==> step wall seconds\n'
  for i in "${!step_names[@]}"; do
    printf '%6d s  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
  done
  printf '\n==> lines of .ml/.mli\n'
  for dir in lib bin bench test; do
    printf '%8d  %s\n' \
      "$(find "$dir" -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)" "$dir"
  done
  return $status
}
trap summary EXIT

before=$(git status --porcelain)

step "committed BENCH_*.json record work (no zero events, blocks or states) and provenance"
degenerate=$(git ls-files -z 'BENCH_*.json' \
  | xargs -0 -r grep -nE '"(events|blocks|states)" *: *0([^0-9.eE]|$)' || true)
if [ -n "$degenerate" ]; then
  echo "error: degenerate bench file(s):" >&2
  echo "$degenerate" >&2
  exit 1
fi
unproven=$(git ls-files -z 'BENCH_*.json' \
  | xargs -0 -r grep -L '"provenance": *{' || true)
if [ -n "$unproven" ]; then
  echo "error: bench file(s) without a \"provenance\" object:" >&2
  echo "$unproven" >&2
  exit 1
fi

step "dune build @all"
dune build @all

step "dune runtest"
dune runtest

if command -v odoc >/dev/null 2>&1; then
  step "dune build @doc"
  dune build @doc
else
  step "odoc not installed; skipping @doc"
fi

step "git status --porcelain (build must not dirty the checkout)"
after=$(git status --porcelain)
if [ "$after" != "$before" ]; then
  echo "error: build or tests changed the checkout; status delta:" >&2
  diff <(echo "$before") <(echo "$after") >&2 || true
  exit 1
fi

step "tier-1 gate passed"
