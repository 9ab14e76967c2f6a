#!/bin/sh
# Bit-identity check of every figure and ablation against a git ref:
#
#   scripts/bench_tables_diff.sh <git-ref>
#
# Exports <git-ref> with git archive, builds the bench binaries there and from
# the working tree (both Release, in one `mktemp -d` directory, so TMPDIR
# chooses where), runs each bench once on both sides with no flags, diffs
# their stdout (deterministic virtual-time tables only) and byte-compares every
# BENCH_*.json they write. A change that must leave virtual time alone (an
# interpreter or other host-side change) should pass it against its parent.
# The ref's benches must print nothing but their tables too: on older refs,
# whose benches also ran google-benchmark, the diff reports its harness lines.
#
# Exits 0 when everything matches, 1 on any difference, 2 on a usage, build or
# run error. Benches the ref does not have are listed and skipped.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi
ref=$1
root=$(cd "$(dirname "$0")/.." && pwd)
if ! git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
  echo "bench_tables_diff: unknown git ref '$ref'" >&2
  exit 2
fi
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -le 4 ] || jobs=4

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 2' INT TERM

mkdir "$tmp/ref-src"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref-src"

benches() {
  sed -n 's/^pmig_bench(\([a-z0-9_]*\))$/\1/p' "$1/bench/CMakeLists.txt"
}

# build <source dir> <build dir>: configures Release and builds every bench.
build() {
  echo "== building $(benches "$1" | wc -l | tr -d ' ') benches from $1" >&2
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >"$tmp/cmake.log" 2>&1 &&
    cmake --build "$2" -j "$jobs" --target $(benches "$1") >>"$tmp/cmake.log" 2>&1 || {
    tail -n 30 "$tmp/cmake.log" >&2
    echo "bench_tables_diff: build of $1 failed" >&2
    exit 2
  }
}

build "$tmp/ref-src" "$tmp/ref-build"
build "$root" "$tmp/work-build"

status=0
for bench in $(benches "$root"); do
  if ! benches "$tmp/ref-src" | grep -qx "$bench"; then
    echo "skip  $bench (not in $ref)"
    continue
  fi
  for side in ref work; do
    out="$tmp/out-$side/$bench"
    mkdir -p "$out"
    if ! (cd "$out" && "$tmp/$side-build/bench/$bench" \
            >"$tmp/$side-$bench.txt" 2>"$tmp/$side-$bench.err"); then
      tail -n 20 "$tmp/$side-$bench.err" >&2
      echo "bench_tables_diff: $bench ($side) exited non-zero" >&2
      exit 2
    fi
  done
  same=yes
  if ! diff -u --label "$ref/$bench" --label "working/$bench" \
      "$tmp/ref-$bench.txt" "$tmp/work-$bench.txt"; then
    same=no
  fi
  written=$(ls "$tmp/out-ref/$bench" "$tmp/out-work/$bench" | grep '^BENCH_.*\.json$' | sort -u)
  for json in $written; do
    if ! cmp -s "$tmp/out-ref/$bench/$json" "$tmp/out-work/$bench/$json"; then
      echo "differs: $json written by $bench"
      same=no
    fi
  done
  if [ "$same" = yes ]; then
    echo "same  $bench"
  else
    echo "DIFF  $bench"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "bench_tables_diff: identical to $ref"
else
  echo "bench_tables_diff: differences from $ref" >&2
fi
exit "$status"
