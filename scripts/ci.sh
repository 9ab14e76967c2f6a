#!/bin/sh
# The full verification pipeline, one command: the -Werror tier-1 build +
# ctest, the ASan and UBSan builds + ctest, the bench gates, and the two-clock
# benchmark's own unit tests. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1 build (warnings are errors) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j

echo "== tier-1 ctest =="
(cd build && ctest --output-on-failure --timeout 300 -j)

echo "== ASan build =="
cmake -B build-asan -S . -DPMIG_SANITIZE=address >/dev/null
cmake --build build-asan -j

echo "== ASan ctest =="
(cd build-asan && ctest --output-on-failure --timeout 300 -j)

echo "== UBSan build =="
cmake -B build-ubsan -S . -DPMIG_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j

echo "== UBSan ctest =="
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure --timeout 300 -j)

echo "== phase-drift gate =="
./build/bench/check_phases --fig4 ./build/bench/fig4_migrate \
    --baseline bench/phase_baseline.txt

echo "== placement gate =="
./build/bench/ablation_placement --check

echo "== observability bit-identical gates =="
./build/bench/fig2_dump --check
./build/bench/fig4_migrate --check

echo "== health-monitor gate =="
./build/bench/ablation_health --check

echo "== partition gate =="
./build/bench/ablation_partition --check

echo "== scale gate =="
./build/bench/ablation_scale --check

echo "== event-driven balancer gate =="
./build/bench/ablation_event --check

echo "== decision-diff gate =="
(cd build/bench && ./decision_diff --check)

echo "== bench JSON schema gate =="
./build/bench/check_bench_json bench/baselines

echo "== report-line schema gate =="
./build/bench/check_bench_json --report build/bench/REPORT_decision_diff.jsonl

echo "== benchmark statistics tests =="
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "ci: all green"
