"""Check that the benchmark is steady across seeds and repeated sets.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads type-local,browse-remote \\
        --seeds 1-10 --sets 2

Runs ``run.py`` once per (set, workload, seed), sets interleaved, with
the ``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric
it prints every value, the spread (interquartile range over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles)
against the metric's bound, the drift of the second set's median from
the first, and how far the first seed's value lies from the median of
the other seeds.  Exits non-zero when a spread (``setup_s`` excepted)
or a drift exceeds its bound, or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: list, second: list, better: str) -> float:
    """How much worse the second set's median is, as a share."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    # results[set][workload][metric] -> values in seed order
    results = [{w: {} for w in workloads} for _ in range(args.sets)]
    ok = True
    for seed in seeds:
        for index in range(args.sets):
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"INCORRECT {workload} seed {seed}: {result}")
                for name, metric in result["metrics"].items():
                    results[index][workload].setdefault(name, []).append(
                        metric["value"])
                print(f"set {index} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)
    for workload in workloads:
        print(f"== {workload} ({len(seeds)} seeds, {args.sets} set(s))")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = results[0][workload][name]
            line = (f"{name:18s} median={statistics.median(values):.4f} "
                    f"spread={spread(values):.3f} (bound {bound}, "
                    f"third {bound / 3:.3f})")
            if name != "setup_s" and spread(values) > bound:
                ok = False
                line += " SPREAD>BOUND"
            if len(values) > 1:
                rest = statistics.median(values[1:])
                line += f" first-seed/others={values[0] / rest - 1:+.3f}"
            for later in results[1:]:
                drift = worse_by(values, later[workload][name],
                                 metric["better"])
                line += f" drift={drift:+.3f}"
                if drift > bound:
                    ok = False
                    line += " DRIFT>BOUND"
            print(line)
            print("    " + " ".join(f"{v:.4f}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
