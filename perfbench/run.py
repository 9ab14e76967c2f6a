#!/usr/bin/env python3
"""Two-clock benchmark of the process-migration simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
pmig_perf program for one workload, applies the correctness gate, and prints
every metric by name and unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). A failed gate prints that
object with "correct": false and exits 1.

Two clocks: virtual metrics (prefix v) come from the simulator's deterministic
clock and repeat exactly for a seed; host metrics are the simulator's own CPU
time, measured with all observation off and scaled by a calibration task timed
in the same run (CALIBRATION_REF_MS). Per-layer counts come from a separate
traced run (every observation subsystem armed), which must reproduce the
untraced virtual numbers bit for bit.

Statistics tests: python3 -m unittest discover -s perfbench -p 'test_*.py'
Spread over seeds: python3 perfbench/spread.py --workloads A,B
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hog_spread", "migrate_churn", "cached_remigrate")
PHASES = ("setup", "signal", "dump", "transfer", "restart", "other")
RUN_TIMEOUT_S = 170
# Host times are scaled to a machine on which pmig_perf's calibration task
# takes this long (about its median on an idle 4-core x86-64 machine), so they
# stay in seconds while following the simulator's cost rather than the load
# other tenants put on a shared machine during the run.
CALIBRATION_REF_MS = 35.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pmig_perf; returns its path or None."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "pmig_perf")


def run_pmig_perf(binary, workload, seed, seconds):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compute(raw):
    """Returns (end_to_end, per_layer, failures, attempted, failed, notes)."""
    reps, traced = raw["reps"], raw["traced"]
    tv, td = traced["virtual"], raw["traced_detail"]
    failures = []
    for i, r in enumerate(reps + [traced]):
        where = "traced run" if i == len(reps) else f"repetition {i}"
        failures += [f"{where}: {f}" for f in r["failures"]]
        if r["virtual"] != tv:
            failures.append(f"{where}: virtual results differ from the traced run")
    attempted = sum(r["virtual"]["ops_attempted"] for r in reps + [traced])
    failed = sum(r["virtual"]["ops_failed"] for r in reps + [traced])
    if failed:
        failures.append(f"{failed} of {attempted} operations failed")
    if not stats.phases_sum_to_total(td["phase_ns"], td["span_migrate_ns"]):
        failures.append("phase self times do not sum to the migrate span total")

    scale = CALIBRATION_REF_MS / stats.median(raw["calibration_ms"])
    host_s = stats.median([r["run_ms"] for r in reps]) * scale / 1e3
    pooled = [ms * scale for r in reps for ms in r["migrate_host_ms"]]
    p50 = stats.tail_percentile(pooled, 50)
    p90 = stats.tail_percentile(pooled, 90)
    if p50 is None or p90 is None:
        failures.append(f"only {len(pooled)} migrate samples: too few for a p90")
    migrations = tv["migrations"]
    if migrations < 1:
        failures.append("no migration committed")
    per_migrate = max(migrations, 1)
    instructions = td["totals"]["kernel.instructions"]
    notes = {
        "setup_s": f"median of {len(raw['setup_ms'])} set-ups",
        "host_s": f"median of {len(reps)} untraced repetitions",
        "migrate_host_ms_p50": f"n={len(pooled)}",
        "migrate_host_ms_p90": f"n={len(pooled)}",
        "vmigrate_ms_p50": f"n={len(tv['vmigrate_ns'])} per repetition",
        "migrations_per_s": f"{migrations} migrations per repetition",
    }
    e2e = {
        "setup_s": (stats.median(raw["setup_ms"]) * scale / 1e3, "s"),
        "host_s": (host_s, "s"),
        "sim_ips": (instructions / host_s, "instr/s"),
        "migrations_per_s": (migrations / host_s, "1/s"),
        "migrate_host_ms_p50": (p50[0] if p50 else 0.0, "ms"),
        "migrate_host_ms_p90": (p90[0] if p90 else 0.0, "ms"),
        "vmigrate_ms_p50": (stats.median(tv["vmigrate_ns"]) / 1e6, "ms"),
        "vcpu_ms_per_migrate": (tv["vcpu_ns"] / per_migrate / 1e6, "ms"),
        "vbytes_per_migrate": (td["windowed"]["bytes_moved"] / per_migrate, "B"),
        "vmakespan_s": (tv["makespan_ns"] / 1e9, "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
    }

    totals, windowed = td["totals"], td["windowed"]
    isolated = stats.median(raw["isolated_ns_per_instr"]) * scale
    in_cluster = host_s * 1e9 / instructions if instructions else 0.0
    hits, misses = totals["cache.seg.dump_hits"], totals["cache.seg.dump_misses"]
    n_spans = max(td["span_migrates"], 1)
    phase_ns = {p: 0 for p in PHASES}
    for name, ns in td["phase_ns"].items():
        phase_ns[name if name in phase_ns else "other"] += ns  # new phases fold into other
    deciles = [stats.decile_means(r["migrate_host_ms"]) for r in reps]
    first = stats.median([d[0] for d in deciles]) * scale
    last = stats.median([d[1] for d in deciles]) * scale
    run_vsec = tv["makespan_ns"] / 1e9
    cluster_ms = stats.median([r["span_ms"].get("cluster", 0.0) for r in reps]) * scale
    kernel_ms = stats.median([r["span_ms"].get("kernel", 0.0) for r in reps]) * scale
    frac, base = stats.failed_fraction(failed, attempted)
    layer = {
        "vm.instructions": (instructions, "count"),
        "vm.isolated_ns_per_instr": (isolated, "ns"),
        "vm.overhead_ratio": (in_cluster / isolated, "ratio"),
        "vm.assemble_ms": (stats.median(raw["assemble_ms"]) * scale, "ms"),
        "kernel.syscalls": (tv["syscalls"], "count"),
        "kernel.context_switches": (tv["context_switches"], "count"),
        "kernel.procs_spawned": (tv["procs_spawned"], "count"),
        "kernel.signals_posted": (tv["signals_posted"], "count"),
        "kernel.host_ms": (kernel_ms, "ms"),
        "cluster.boot_ms": (stats.median(raw["boot_ms"]) * scale, "ms"),
        "cluster.host_ms_per_vsec": (cluster_ms / run_vsec, "ms/s"),
        "vfs.bytes_written": (windowed["vfs.bytes_written"] / per_migrate, "B"),
        "vfs.nfs_bytes_read": (windowed["vfs.nfs_bytes_read"] / per_migrate, "B"),
        "vfs.nfs_bytes_written": (windowed["vfs.nfs_bytes_written"] / per_migrate, "B"),
        "vfs.name_bytes_copied": (windowed["vfs.name_bytes_copied"] / per_migrate, "B"),
        "net.rsh_connections": (totals["net.rsh_connections"], "count"),
        "net.daemon_connections": (totals["net.daemon_connections"], "count"),
        "net.wire_bytes": (totals["net.wire_bytes"], "B"),
        "net.transfer_ms_p50": (td["transfer_ns_p50"] / 1e6, "ms"),
    }
    for p in PHASES:
        layer[f"core.phase.{p}_vms"] = (phase_ns[p] / n_spans / 1e6, "ms")
    layer.update({
        "core.migrate_span_vms": (td["span_migrate_ns"] / n_spans / 1e6, "ms"),
        "core.dump_ms_p50": (stats.median(td["dump_span_ns"] or [0]) / 1e6, "ms"),
        "core.restart_ms_p50": (stats.median(td["restart_span_ns"] or [0]) / 1e6, "ms"),
        "core.segcache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "core.segcache_lookups": (hits + misses, "count"),
        "core.bytes_saved": (totals["migration.bytes_saved"], "B"),
        "core.migrate_retries": (totals["migrate.retries"], "count"),
        "core.fallback_restarts": (totals["migrate.fallback_restarts"], "count"),
        "core.migrate_aborted": (tv["aborted_migrates"], "count"),
        "core.migrate_host_ms_first_decile": (first, "ms"),
        "core.migrate_host_ms_last_decile": (last, "ms"),
        "core.migrate_host_ms_samples": (len(pooled), "count"),
        "core.ops_attempted": (base, "count"),
        "core.ops_failed_frac": (frac, "ratio"),
        "apps.survey_msgs": (totals["placement.survey_msgs"], "count"),
        "apps.balancer_rounds": (totals["balancer.rounds"], "count"),
        "apps.balancer_idle_rounds": (totals["balancer.idle_rounds"], "count"),
        "apps.moves": (migrations if raw["workload"] == "hog_spread" else 0, "count"),
        "trace.overhead_ratio": (traced["run_ms"] * scale / (host_s * 1e3), "ratio"),
        "bench.calibration_ms": (stats.median(raw["calibration_ms"]), "ms"),
    })
    notes.update({
        "core.segcache_hit_ratio": f"base {hits + misses} lookups",
        "core.ops_failed_frac": f"base {base} ops",
        "core.migrate_host_ms_last_decile": f"procs spawned {tv['procs_spawned']}",
        "bench.calibration_ms": f"host times scaled by {scale:.3f}",
    })
    return e2e, layer, failures, attempted, failed, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    try:
        raw = run_pmig_perf(binary, args.workload, args.seed, args.seconds)
    except subprocess.TimeoutExpired:
        log(f"perfbench: pmig_perf exceeded {RUN_TIMEOUT_S} s")
        return 1
    if raw is None:
        log("perfbench: pmig_perf failed")
        return 1

    e2e, layer, failures, attempted, failed, notes = compute(raw)
    shown = layer if args.trace else e2e
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in shown.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:>16.6g} {unit:8s} {note}")
    print("gate: " + ("ok" if not failures else "FAILED"))
    for f in failures:
        print(f"  {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": max(failed, 1) if failures else 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
