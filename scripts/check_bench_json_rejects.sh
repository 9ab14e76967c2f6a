#!/bin/sh
# Rejection gate for bench/check_bench_json: inputs that break the BENCH or
# report contract must be refused.
#
#   scripts/check_bench_json_rejects.sh CHECKER
#
# Writes each case into the working directory. Two well-formed controls (one
# BENCH file, one report line) must pass; every bad input must exit 1: a row
# whose bytes_moved is not an integer, a row that repeats a key, bytes after
# the closing brace, a number outside JSON's grammar, a report line that
# repeats a key, and a decision line whose candidate carries a key outside the
# schema. Exits 0 when every case behaves, 1 otherwise, 2 on a usage error.
set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 CHECKER" >&2
  exit 2
fi
checker=$1

row='"case":"a","vcpu_ms":1.5,"vreal_ms":2'
decision='"type":"decision","seq":1,"t_ns":0,"ctx":"test","policy":"load-only","src":"scan","from":"brick","pid":-1,"chosen":"schooner","runner_up":"","margin_factor":"only","margin":0,"near_tie":false,"trace":0,"rc":-1,"exclusions":[]'
cand='"host":"schooner","load":0,"est_bytes":0,"fault":0,"health":0'

status=0
# expect WANT NAME MODE CONTENT: writes CONTENT to NAME, runs the checker in
# MODE ("bench" or "report") and requires exit status WANT.
expect() {
  want=$1
  name=$2
  mode=$3
  printf '%s\n' "$4" >"$name"
  if [ "$mode" = report ]; then
    "$checker" --report "$name" >/dev/null 2>&1
  else
    "$checker" "$name" >/dev/null 2>&1
  fi
  got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok    $name: exit $got"
  else
    echo "FAIL  $name: exit $got, want $want"
    status=1
  fi
}

expect 0 BENCH_good.json bench "{\"bench\":\"x\",\"rows\":[{$row,\"bytes_moved\":3}]}"
expect 0 REPORT_good.jsonl report "{$decision,\"candidates\":[{$cand}]}"
expect 1 BENCH_fractional_bytes.json bench "{\"bench\":\"x\",\"rows\":[{$row,\"bytes_moved\":1.5}]}"
expect 1 BENCH_repeated_key.json bench "{\"bench\":\"x\",\"rows\":[{$row,\"bytes_moved\":3,\"vcpu_ms\":9}]}"
expect 1 BENCH_trailing_bytes.json bench "{\"bench\":\"x\",\"rows\":[{$row,\"bytes_moved\":3}]}x"
expect 1 BENCH_bad_number.json bench "{\"bench\":\"x\",\"rows\":[{$row,\"bytes_moved\":1-2}]}"
expect 1 REPORT_repeated_key.jsonl report "{$decision,\"rc\":0,\"candidates\":[{$cand}]}"
expect 1 REPORT_extra_candidate_key.jsonl report "{$decision,\"candidates\":[{$cand,\"wire\":0}]}"
exit "$status"
