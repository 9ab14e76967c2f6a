#!/bin/sh
# The full verification pipeline, one command: the tier-1, ASan and UBSan
# builds (all three with warnings as errors) and their ctest runs, which hold
# every bench gate, the two-clock benchmark's own unit tests, and a smoke run of
# the benchmark itself. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

# Every build and ctest run uses at most this many jobs: the core count, capped
# at 4 (as in scripts/bench_tables_diff.sh), so the sanitizer builds stay
# within a small machine's memory.
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -le 4 ] || jobs=4

echo "== tier-1 build (warnings are errors) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1 ctest =="
(cd build && ctest --output-on-failure --timeout 300 -j "$jobs")

echo "== ASan build (warnings are errors) =="
cmake -B build-asan -S . -DPMIG_SANITIZE=address -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-asan -j "$jobs"

echo "== ASan ctest =="
# With detect_stack_use_after_return, ASan moves locals onto its fake stacks, so
# the fake-stack half of every native-task switch annotation runs too. GCC
# leaves it off by default.
(cd build-asan &&
  ASAN_OPTIONS=detect_stack_use_after_return=1 ctest --output-on-failure --timeout 300 -j "$jobs")

echo "== UBSan build (warnings are errors) =="
cmake -B build-ubsan -S . -DPMIG_SANITIZE=undefined -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-ubsan -j "$jobs"

echo "== UBSan ctest =="
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure --timeout 300 -j "$jobs")

echo "== benchmark statistics tests =="
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "== benchmark smoke run =="
# pmig_perf compiles against src/ outside the main build, so this is the step
# that notices an API change breaking it. One short seeded run per workload and
# mode; each must exit 0 and pass its correctness gate.
smoke_start=$(date +%s)
for workload in hog_spread migrate_churn cached_remigrate; do
  for trace in 0 1; do
    if ! out=$(CARGO_TARGET_DIR=build-perf python3 perfbench/run.py --workload "$workload" \
        --seed 1 --seconds 1 --trace "$trace"); then
      echo "benchmark smoke: $workload --trace $trace failed"
      exit 1
    fi
    if ! printf '%s\n' "$out" | tail -n 1 |
        python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'; then
      echo "benchmark smoke: $workload --trace $trace is not correct"
      exit 1
    fi
  done
done
echo "benchmark smoke: $(($(date +%s) - smoke_start)) s"

echo "ci: all green"
