#!/usr/bin/env bash
# Tier-1 verify for CI: run the source guards below (src/runtime/ stays free
# of the multi-process wire path, among others), configure and build with
# -Wall -Wextra promoted to errors for src/ (the library), check that every
# tests/*.cpp is a registered ctest suite, run ctest (the forked-executor,
# fault, churn and trace suites, and the spawned dynapipe_executor daemon,
# all run there), then smoke the planner microbenchmarks (if built),
# bench_plan_distribution's fleet and instrument rows, the plan_distribution
# example and every end-to-end benchmark workload.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-${BUILD_DIR:-build-check}}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Layering guard: src/runtime/ is the single-process training loop. The
# multi-process publisher (socket and shm stores and the fleet coordinator)
# is executor::Publisher in src/executor/, so no runtime file may include a
# transport header or src/service/fleet.h.
if grep -rnE '#include "src/(transport/|service/fleet\.h)' src/runtime/; then
  echo "ERROR: src/runtime/ includes src/transport/ or src/service/fleet.h" >&2
  exit 1
fi

# src/service/ starts no thread: the plan-ahead pipeline runs on the planner
# pool, and the fleet control plane is one state machine on the caller's
# clock, whose deadline ticker runs in executor::Publisher.
if grep -rn 'std::thread' src/service/; then
  echo "ERROR: src/service/ names std::thread" >&2
  exit 1
fi

# The heartbeat monitor and the fleet coordinator that owns it react inside
# the call that fed them: every input returns or applies what it changed, so
# neither takes a callback nor waits on a condition.
if grep -nE 'std::(function|condition_variable)' \
    src/service/heartbeat_monitor.h src/service/heartbeat_monitor.cc \
    src/service/fleet.h src/service/fleet.cc; then
  echo "ERROR: the heartbeat monitor or the fleet coordinator names" \
    "std::function or std::condition_variable" >&2
  exit 1
fi

# The fleet coordinator acts on liveness and membership only: a straggler
# flag is detection (HeartbeatMonitor::ForIteration), never a plan move.
if grep -n 'stragglers' src/service/fleet.h src/service/fleet.cc; then
  echo "ERROR: src/service/fleet.{h,cc} names stragglers" >&2
  exit 1
fi

# Nothing moves off an active member: a join is admission only, so neither
# the join steal's count nor the vacated-key release it needed comes back.
if grep -nE 'join_stolen|released_' src/service/fleet.h src/service/fleet.cc; then
  echo "ERROR: src/service/fleet.{h,cc} names join_stolen or released_" >&2
  exit 1
fi

# Runnable programs get their publisher from one place: executor::Publisher
# wires the store, its server or shm poller, and the fleet coordinator. The
# benches may time a FleetCoordinator move in-process, but serve no store by
# hand (bench/e2e/ still does, until it moves onto the Publisher).
if grep -rnE 'InstructionStoreServer|ShmHeartbeatPoller|FleetCoordinator' \
    examples/ tools/; then
  echo "ERROR: examples/ or tools/ wire InstructionStoreServer," \
    "ShmHeartbeatPoller or FleetCoordinator by hand;" \
    "use executor::Publisher" >&2
  exit 1
fi
if grep -nE 'InstructionStoreServer|ShmHeartbeatPoller' bench/*.cpp; then
  echo "ERROR: bench/*.cpp wires InstructionStoreServer or" \
    "ShmHeartbeatPoller by hand; use executor::Publisher" >&2
  exit 1
fi

# The store interface is only the publish/fetch contract. Moving plans is the
# RecoverableStore type, not a capability flag, and no store fences members:
# the fleet coordinator's member set alone decides who receives work.
if grep -nE 'supports_|Fence' src/runtime/instruction_store.h; then
  echo "ERROR: src/runtime/instruction_store.h names supports_ or Fence" >&2
  exit 1
fi

# The socket wire is the executor's request/response client: plans are
# published where the store lives, so the client starts no thread and the
# frame protocol has no push request.
if grep -n 'std::thread' src/transport/mux.h; then
  echo "ERROR: src/transport/mux.h names std::thread" >&2
  exit 1
fi
if grep -n 'kPush' src/transport/frame.h; then
  echo "ERROR: src/transport/frame.h names kPush" >&2
  exit 1
fi

# The profile is stored once: PipelineCostModel's packed grid holds every
# profiled value and PackedGrids::At is its only interpolation read, so no
# per-stage table copy and no profile file format (which nothing read) return.
if grep -rnE 'StageCostModel|SaveProfile|LoadProfile' src/; then
  echo "ERROR: src/ names StageCostModel, SaveProfile or LoadProfile" >&2
  exit 1
fi

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

# Smoke the planner microbenchmarks over the DP's row pricing, the
# recompute bound sweep and the whole partition (serial and on a 4-thread
# pool), so a bench that no longer runs fails here. Only when the binary was
# built: google-benchmark is optional.
if [ -x "$BUILD_DIR"/bench_micro_planner ]; then
  "$BUILD_DIR"/bench_micro_planner \
    --benchmark_filter='^BM_(WindowCosts|PriceRows|RecomputeLowerBounds|DpPartition/65536|DpPartitionPool/65536/4)$' \
    --benchmark_min_time=0.01
fi

# Smoke the plan-distribution bench (3 rounds): it moves real plans through
# the FleetCoordinator's recovery, join and drain reactions and publishes
# into a shm segment with metrics armed and off, so a reaction that builds
# but cannot move a plan fails CI here rather than in a user's hands.
"$BUILD_DIR"/bench_plan_distribution 3

# Run the plan-distribution example: the one program outside the tests that
# wires a Publisher. It forks three executors over a socket and then over
# shm, and exits nonzero unless every plan is byte-identical and the slowed
# replica alone is flagged on both backends.
"$BUILD_DIR"/plan_distribution

# Smoke the end-to-end benchmark (bench/e2e/README.md): one short run of every
# workload through the real sample -> plan -> publish -> fetch -> execute ->
# heartbeat path. Exits nonzero unless every workload is correct with no
# failed plans; no figures are compared here.
python3 bench/e2e/bench_e2e.py --repeat 1 --seconds 2
