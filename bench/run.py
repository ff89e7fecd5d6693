"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep_dense --seed 1 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
same list untraced and then traced, and prints the per-layer metrics and the
tracing overhead. Every output is checked against bench/oracle.py; an
operation fails when it raises or when its output fails a check.

The speed of the shared reference machine drifts by up to half over minutes,
for every process alike, so the end-to-end times and the tracing overhead
are given at a reference speed: a fixed pure-Python loop that does not call
the program is timed between operations (and in every set-up probe), and
each time is scaled by CAL_REF_S over the loop's mean time in the same pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CAL_REF_S = 0.003  # the calibration loop's time at the reference speed
CAL_EVERY_S = 0.1  # least time between two calibration samples
CAL_PROBE_SAMPLES = 10


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    started = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - started


def speed_scale(samples) -> float:
    """Factor that turns a time measured alongside samples into a time at
    the reference speed."""
    return CAL_REF_S / statistics.fmean(samples)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(args) -> float:
    """Median over fresh processes of the time from process start to the
    first timed operation (interpreter, imports and input building), each
    at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ]
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ready, cal = map(float, out.stdout.split()[-2:])
        times.append((ready - started) * CAL_REF_S / cal)
    return statistics.median(times)


def run_list(workload, tracer, cal=None):
    """Run every operation once; return (results, latencies, wall seconds).
    A result is the output or the exception the operation raised. When cal
    is a list, calibration samples are appended to it between operations,
    and their time is left out of the wall seconds."""
    results, latencies = [], []
    started = time.perf_counter()
    cal_s, last_cal = 0.0, -CAL_EVERY_S
    for i, op in enumerate(workload.ops):
        if cal is not None and time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal.append(calibrate())
            cal_s += cal[-1]
            last_cal = time.perf_counter()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            res = workload.run(op, tracer)
        except Exception as exc:  # an operation's error is a counted failure
            traceback.print_exc(file=sys.stderr)
            res = exc
        latencies.append(time.perf_counter() - t0)
        results.append(res)
    return results, latencies, time.perf_counter() - started - cal_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "schurperturb" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.setup_probe:
        ready = time.monotonic()
        print(ready, statistics.fmean(calibrate() for _ in range(CAL_PROBE_SAMPLES)))
        return 0

    from tracing import Tracer, layer_metrics

    setup_s = measure_setup(args) if not args.trace else None
    cal = []
    results, latencies, wall = run_list(workload, None, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures: dict[int, str] = {}
    if args.trace:
        tracer = Tracer()
        traced_cal = []
        traced, _, traced_wall = run_list(workload, tracer, traced_cal)
        for i, (a, b) in enumerate(zip(results, traced)):
            if not isinstance(a, BaseException) and not isinstance(b, BaseException) and a != b:
                failures[i] = "traced and untraced outputs differ"
        results = traced
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    checks_started = time.perf_counter()
    failures.update(workload.check_all(results))
    scale = speed_scale(cal)
    print(
        f"{args.workload}: {len(results)} ops in {wall:.2f} s "
        f"({wall * scale:.2f} s at the reference speed), "
        f"checks {time.perf_counter() - checks_started:.2f} s",
        file=sys.stderr,
    )
    for i, why in sorted(failures.items()):
        print(f"check failed: op {i} {workload.ops[i]!r:.120}: {why}", file=sys.stderr)
    raised = sum(isinstance(r, BaseException) for r in results)

    if args.trace:
        metrics = layer_metrics(tracer)
        metrics["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms")
        overhead = traced_wall * speed_scale(traced_cal) - wall * scale
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        completed = len(results) - raised
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (completed / (wall * scale), "ops/s"),
            "op_p50_ms": (statistics.median(latencies) * scale * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(
        json.dumps(
            {
                "correct": raised + len(failures) == 0,
                "attempted": len(results),
                "failed": raised + len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
