#!/bin/sh
# Flag gate for the bench binaries: every BINARY FLAG pair must be refused.
#
#   scripts/check_bench_flags.sh BINARY FLAG [BINARY FLAG]...
#
# Runs each BINARY with the one FLAG and requires a non-zero exit with nothing
# on stdout: the bench rejected the flag before any scenario ran or any table
# printed. Exits 0 when every pair is refused, 1 otherwise, 2 on a usage error.
set -u

if [ $# -lt 2 ] || [ $(($# % 2)) -ne 0 ]; then
  echo "usage: $0 BINARY FLAG [BINARY FLAG]..." >&2
  exit 2
fi

status=0
while [ $# -ge 2 ]; do
  bin=$1
  flag=$2
  shift 2
  name="$(basename "$bin") $flag"
  if out=$("$bin" "$flag" 2>/dev/null); then
    echo "FAIL  $name: exited 0"
    status=1
  elif [ -n "$out" ]; then
    echo "FAIL  $name: printed to stdout"
    status=1
  else
    echo "ok    $name"
  fi
done
exit "$status"
