"""Run every workload in two sets of runs of the same code and report, per
workload and metric, the median, the quartiles and the spread (interquartile
distance over the median), and whether the two sets agree within the bounds
in BENCHMARK.json.

    python3 bench/steady.py --runs 10            # two sets of ten seeds each
    python3 bench/steady.py --runs 1 --sets 1    # every workload once
    python3 bench/steady.py --runs 1 --sets 1 --trace 1   # per-layer metrics

Set k uses the seeds k*runs+1 .. (k+1)*runs, so the sets differ in machine
noise and in inputs. A metric with a bound agrees when every set's spread is
within the bound and the sets' medians differ, either way, by at most the
bound of the smaller one. Each run's metrics are printed as they arrive; the
summary is also written to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    report, agree = {}, True
    for w in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in range(k * args.runs + 1, (k + 1) * args.runs + 1):
                res = run_once(w, seed, spec["run_seconds"], args.trace)
                runs.append(res)
                vals = " ".join(
                    f"{name}={m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()
                )
                print(
                    f"{w} set {k + 1} seed {seed}: correct={res['correct']} "
                    f"attempted={res['attempted']} failed={res['failed']} {vals}",
                    flush=True,
                )
            sets.append(runs)
        report[w] = {}
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) > 1 or any(not r["correct"] for s in sets for r in s):
            agree = False
            print(f"{w}: failed shares {shares}, or an incorrect run", flush=True)
        for name in bounds:
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            bound = bounds[name]
            ok = True
            if bound is not None:
                first, last = stats[0]["median"], stats[-1]["median"]
                ok = all(st["spread"] <= bound for st in stats)
                ok = ok and abs(last - first) / min(first, last) <= bound
            agree &= ok
            report[w][name] = {"sets": stats, "bound": bound, "ok": ok}
            cells = "  ".join(
                f"med {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] spread {st['spread']:.3f}"
                for st in stats
            )
            verdict = "" if bound is None else (" ok" if ok else " OUT OF BOUND")
            print(f"{w:20s} {name:42s} {cells}  bound {bound}{verdict}", flush=True)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(report, indent=1))
    if args.trace == 0:
        print("two sets agree within the bounds" if agree else "the sets do NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
