"""Run one workload of the toolkit benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload type-local --seed 1 --seconds 10 --trace 0

Workloads: ``type-local``, ``browse-remote``, ``fleet-typists`` (see
``scenarios.py``).  ``--trace 0`` reports the end-to-end metrics from
an untraced run; ``--trace 1`` splits the time between an untraced and
a traced stretch and reports the per-layer metrics, the tracing
overhead and the reconciliation of self times against latency.  The
last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Per-run detail (provenance, per-kind latency, gate mismatches) goes to
``.bench_out/`` at the checkout root, traced runs add a Chrome
trace-event file there.  The program is imported from ``src/`` of the
same checkout; every ``ANDREW_*`` variable is cleared first, so a run
measures the code's own defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("type-local", "browse-remote", "fleet-typists")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.relpath(SRC)}/repro; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for name in [name for name in os.environ if name.startswith("ANDREW_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)

    import harness
    import scenarios

    workload = scenarios.WORKLOADS[args.workload](args.seed, args.seconds)
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                         OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
