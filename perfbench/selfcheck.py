#!/usr/bin/env python3
"""Steadiness self-check: do repeated runs of the same code agree?

Run from the repository root:

    python3 perfbench/selfcheck.py --runs 5 --sets 2

For every workload it makes ``sets`` sets of ``runs`` untraced runs, each
in a fresh child process with its own seed, one at a time.  For every
end-to-end metric of BENCHMARK.json it then checks two things against the
metric's bound:

* spread: the distance between the first and third quartile of all values
  (``statistics.quantiles(values, n=4)``) as a share of their median;
* drift: how far each later set's median lies from the first set's, either
  way, as a share of the first set's median.

Every run uses the workloads and ``run_seconds`` of BENCHMARK.json.

It also shows each metric's host elasticity: how the reported values
follow the host's speed across the runs (0: not at all; negative: the
calibration scaling over-corrects).  It also checks that every run was
correct and reported exactly the metrics BENCHMARK.json names.  Exit
code 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, float | None]:
    """The run's result line and, for untraced runs, the median time of
    its calibration loop (the host's speed during the run)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        return result, None
    samples = json.loads((ROOT / ".bench_out" / f"samples-{workload}-seed"
                          f"{seed}.json").read_text(encoding="utf-8"))
    return result, statistics.median(samples["calibration_s"])


def elasticity(calibrations: list[float], values: list[float]) -> str:
    """Slope of log(value) on log(calibration time) over the runs: 0 means
    the scaling removed the host's speed, -0.2 that a host twice as slow
    reads 13% lower.  Shown only when the host's speed moved by 20%."""
    if max(calibrations) < 1.2 * min(calibrations):
        return "n/a"
    xs = [math.log(c) for c in calibrations]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return f"{slope:+.2f}"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 checks only that traced runs are correct, "
                             "complete and repeat their exact counts")
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in bench[section]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [[] for _ in range(args.sets)] for name in metrics}
        calibrations = []
        for s in range(args.sets):
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                start = time.monotonic()
                result, calibration = run_once(
                    workload, seed, bench["run_seconds"], args.trace)
                calibrations.append(calibration)
                took = time.monotonic() - start
                got = result["metrics"]
                if not result["correct"] or set(got) != set(metrics):
                    ok = False
                    print(f"FAIL {workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']} "
                          f"metrics={sorted(set(got) ^ set(metrics))}")
                for name in metrics:
                    values[name][s].append(got[name]["value"])
                print(f"{workload} seed {seed} ({took:.0f} s): " + "  ".join(
                    f"{n}={got[n]['value']:.4g}" for n in metrics
                    if n in got), flush=True)
        print(f"\n{workload}: {args.sets} sets of {args.runs} runs")
        if not args.trace:
            print(f"  calibration loop, run medians: {min(calibrations):.4g}"
                  f"..{max(calibrations):.4g} s")
        for name, spec in metrics.items():
            flat = [v for per_set in values[name] for v in per_set]
            if args.trace:
                if spec["unit"] == "count" and len(set(flat)) != 1:
                    ok = False
                    print(f"  FAIL {name}: count differs between runs "
                          f"{sorted(set(flat))}")
                continue
            median = statistics.median(flat)
            q1, _, q3 = statistics.quantiles(flat, n=4)
            spread = (q3 - q1) / median
            medians = [statistics.median(v) for v in values[name]]
            drift = max((abs(m - medians[0]) / medians[0]
                         for m in medians[1:]), default=0.0)
            bound = spec["bound"]
            verdict = []
            if spread > bound:
                verdict.append("SPREAD")
            if drift > bound:
                verdict.append("DRIFT")
            if verdict:
                ok = False
            note = " ".join(verdict) or (
                "ok" if spread < bound / 3
                else "ok (spread above a third of the bound)")
            print(f"  {name:18s} median {median:10.4g} {spec['unit']:5s} "
                  f"spread {spread:6.3f}  drift {drift:6.3f}  "
                  f"bound {bound:.2f}  host elasticity "
                  f"{elasticity(calibrations, flat):>5s}  {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
