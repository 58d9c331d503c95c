#!/usr/bin/env bash
# Tier-1 verify for CI: configure, build, ctest — with -Wall -Wextra promoted
# to errors for src/ (the library). Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-${BUILD_DIR:-build-check}}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" \
  -DDYNAPIPE_WERROR=ON

cmake --build "$BUILD_DIR" -j "$JOBS"

# Every tests/*.cpp must be a registered ctest suite: a test file that exists
# but never runs is worse than no test. (CMake globs tests/ today, but this
# guards against explicit lists drifting and against stale configure caches.)
# Runs after the build — pre-build `ctest -N` interleaves missing-executable
# noise into the listing.
registered="$(ctest --test-dir "$BUILD_DIR" -N | sed -n 's/^ *Test *#[0-9]*: //p')"
missing=0
for test_src in tests/*.cpp; do
  name="$(basename "$test_src" .cpp)"
  if ! grep -qx "$name" <<<"$registered"; then
    echo "ERROR: $test_src is not registered with ctest (suite '$name' missing)" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "ERROR: unregistered test files — fix CMakeLists.txt or re-configure" >&2
  exit 1
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Smoke the plan-distribution bench end to end (3 rounds): it drives every
# store backend — in-process, serde, mux over loopback and socket, shm — through
# real pushes and fetches, so a backend that builds but cannot move a plan
# fails CI here rather than in a user's hands.
"$BUILD_DIR"/bench_plan_distribution 3

# Smoke the standalone executor daemon against shm attachment: the --demo
# plans a tiny epoch, forks three real executor processes (one deliberately
# slowed), and exits nonzero on any byte mismatch, undrained plan, or missed
# straggler attribution / heartbeat count. The socket attachment gets the
# same smoke from the traced --demo mux run at the end.
"$BUILD_DIR"/dynapipe_executor --demo shm

# Smoke the failure control loop end to end: --fault arms a one-shot fault in
# one forked executor, and the demo exits nonzero unless the death is
# declared, the victim's backlog is re-published, and survivors drain every
# plan byte-identically. Both run over the mux transport. crash = SIGKILL
# mid-epoch (connection-drop path); stall = wedged past the heartbeat
# deadline (liveness-deadline + eviction fencing path).
"$BUILD_DIR"/dynapipe_executor --demo mux --fault crash@1
"$BUILD_DIR"/dynapipe_executor --demo mux --fault stall:1200@1

# Smoke the shm-native straggler reaction: a stall over the shared-memory
# endpoint is detected through the segment's heartbeat slots alone (no
# socket side-channel), and the demo exits nonzero unless the stalled
# replica is flagged, its unfetched backlog migrates to the fast replicas,
# and the epoch still drains byte-identically.
"$BUILD_DIR"/dynapipe_executor --demo shm --fault stall:1200@1

# Smoke elastic membership end to end over shm: mid-epoch one replica drains
# (hands off its backlog, gets acked through the segment's drain word, exits
# clean) while a fourth replica joins (admitted off its slot claim alone,
# steals a share of the deepest backlog at its spare keys). The demo exits
# nonzero unless every plan byte matches, the drainer leaves un-evicted, the
# joiner executes at least one plan, and the heartbeat count proves
# exactly-once execution.
"$BUILD_DIR"/dynapipe_executor --demo shm --churn

# Smoke the socket attachment and the observability stack end to end: the
# traced mux demo exits nonzero on the same checks as the shm demo above, or
# when no executor answers the mid-epoch stats pull, and must write one
# merged Chrome-trace JSON covering the parent (planner/publisher) and all
# three forked executors. python3 -m json.tool is the structural check;
# the pid count proves cross-process merge actually happened (parent + at
# least one part file — the full 4 is asserted by observability_test).
TRACE_OUT="$(mktemp -t dynapipe-trace-XXXXXX.json)"
DYNAPIPE_TRACE="$TRACE_OUT" "$BUILD_DIR"/dynapipe_executor --demo mux --metrics-dump >/dev/null
python3 -m json.tool "$TRACE_OUT" >/dev/null
pids="$(grep -o '"pid":[0-9]*' "$TRACE_OUT" | sort -u | wc -l)"
if [ "$pids" -lt 2 ]; then
  echo "ERROR: merged trace $TRACE_OUT covers $pids process(es); want >= 2" >&2
  exit 1
fi
rm -f "$TRACE_OUT"

# Smoke the end-to-end benchmark (bench/e2e/README.md): one short run of every
# workload through the real sample -> plan -> publish -> fetch -> execute ->
# heartbeat path. Exits nonzero unless every workload is correct with no
# failed plans; no figures are compared here.
python3 bench/e2e/bench_e2e.py --repeat 1 --seconds 2
