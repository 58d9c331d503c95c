#!/usr/bin/env bash
# Tier-1 verify for CI: check that src/runtime/ stays free of the
# multi-process wire path, configure and build with -Wall -Wextra promoted to
# errors for src/ (the library), check that every tests/*.cpp is a
# registered ctest suite, run ctest (the forked-executor, fault, churn and
# trace suites, and the spawned dynapipe_executor daemon, all run there),
# then smoke bench_plan_distribution and every end-to-end benchmark
# workload. Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-${BUILD_DIR:-build-check}}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Layering guard: src/runtime/ is the single-process training loop. The
# multi-process publisher (socket and shm stores, the fleet coordinator) is
# wired by its callers (examples/plan_distribution, bench/e2e), so no runtime
# file may include a transport header or src/service/fleet.h.
if grep -rnE '#include "src/(transport/|service/fleet\.h)' src/runtime/; then
  echo "ERROR: src/runtime/ includes src/transport/ or src/service/fleet.h" >&2
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

# Smoke the plan-distribution bench end to end (3 rounds): it drives every
# store backend — in-process, serde, mux over loopback and socket, shm — through
# real pushes and fetches, so a backend that builds but cannot move a plan
# fails CI here rather than in a user's hands.
"$BUILD_DIR"/bench_plan_distribution 3

# Smoke the end-to-end benchmark (bench/e2e/README.md): one short run of every
# workload through the real sample -> plan -> publish -> fetch -> execute ->
# heartbeat path. Exits nonzero unless every workload is correct with no
# failed plans; no figures are compared here.
python3 bench/e2e/bench_e2e.py --repeat 1 --seconds 2
