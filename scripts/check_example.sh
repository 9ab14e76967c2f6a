#!/bin/sh
# Runs one example program with stdin from /dev/null and compares its stdout
# with the committed expected output (examples/expected/<name>.txt). Every
# example prints only deterministic, virtual-time output, so any difference is
# a behaviour change; it is printed as a unified diff. Run by ctest as
# example_<name>.
#
# Usage: scripts/check_example.sh EXAMPLE_BINARY EXPECTED_FILE
#
# To regenerate a golden after an intended change: run the example the same
# way (`./build/examples/<name> </dev/null >examples/expected/<name>.txt`) and
# say so in CHANGES.md.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 EXAMPLE_BINARY EXPECTED_FILE" >&2
  exit 2
fi
binary=$1
expected=$2

out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! "$binary" </dev/null >"$out"; then
  echo "example: $binary exited nonzero" >&2
  exit 1
fi
if ! cmp -s "$expected" "$out"; then
  echo "example: $binary output differs from $expected" >&2
  diff -u "$expected" "$out" || true
  exit 1
fi
echo "example: $(basename "$binary") matches"
