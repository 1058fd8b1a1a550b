"""Compare fresh ``BENCH_*.json`` snapshots against committed baselines.

CI runs the benchmarks (which write ``BENCH_*.json`` into the working
directory) and then this script.  Every numeric ``*_ns`` field in a
fresh snapshot is compared against the same field in the committed
baseline under ``benchmarks/baselines/``; a value more than
``THRESHOLD`` slower is flagged.  Ratio fields (request/redraw
reductions) are checked the other way: a baseline claim (e.g. "13x
fewer requests") that *drops* by more than the threshold is also
flagged, catching coalescer regressions that timing noise would hide.

Committed baselines hold the ``summary`` block only (plus an optional
``note`` on how it was measured).  A fresh snapshot may also carry the
raw ``registry`` dump; it is never compared, so it is not committed,
where it would drift from the code unread.

Two kinds of flag *fail the run*:

* growth of more than ``THRESHOLD`` in a deterministic count — a leaf
  ending in ``_bytes`` (wire and storage costs), ``_per_keystroke``
  (device work), ``_per_edit`` (observer traffic) or
  ``rows_repainted`` (scroll repaint work).  These carry no
  clock noise, so such growth is a real change in what the code emits;
  a deliberate one regenerates the baseline.
* the **budgeted** metrics in :data:`BUDGETS`, the product's
  responsiveness contract (keystroke p50, scroll p95, expose p95):
  both an absolute ceiling and a >``THRESHOLD`` regression against the
  baseline.  ``--budget PATTERN`` demotes budgeted metrics whose dotted
  path matches the substring ``PATTERN`` back to warnings — the escape
  hatch for runners known to blow the absolute numbers.

Every other flag (clock fields, ratio claims) is advisory — shared CI
runners have noisy clocks — so it prints as a warning and the exit
code stays 0 (pass ``--strict`` to turn every warning into a failure
for local A/B runs).

Usage::

    python benchmarks/check_regression.py [--strict] [--budget PATTERN]
                                          [BENCH_x.json ...]

With no file arguments, every ``BENCH_*.json`` in the current
directory is checked (budgets apply even without a committed
baseline; baseline comparisons are skipped for files that lack one).
"""

from __future__ import annotations

import glob
import json
import sys
from pathlib import Path

THRESHOLD = 0.20  # flag beyond 20% in the losing direction

BASELINE_DIR = Path(__file__).parent / "baselines"

#: Hard ceilings per snapshot file and dotted summary path — latency
#: metrics in nanoseconds, wire costs in bytes (``*_bytes``), device
#: work in requests (``*_per_keystroke``), observer traffic in change
#: records (``*_per_edit``).  Values
#: are deliberately several times the observed numbers so they catch a
#: lost optimisation (a disabled cache, a full-pane scroll repaint, a
#: delta encoder shipping literals), not clock jitter.
BUDGETS = {
    "BENCH_text_editing.json": {
        "incremental.keystroke_p50_ns": 10_000_000,   # 10 ms per keystroke
        # Run-level text drawing does ~7; one request per glyph ~68.
        "incremental.device_requests_per_keystroke": 20,
    },
    "BENCH_scroll.json": {
        "blit.scroll_p95_ns": 10_000_000,             # 10 ms per scroll tick
        "blit.expose_p95_ns": 40_000_000,             # 40 ms per full expose
    },
    "BENCH_remote.json": {
        "delta.per_frame_bytes": 600,                 # wire cost per frame
    },
    "BENCH_sessions.json": {
        # Median idle cycle over bare sessions: ~3 µs with the ready
        # queue at either size; a scan of the fleet costs ~0.3 ms at 1k
        # and ~6 ms at 10k.
        "idle_cycle_1k_ns": 50_000,
        "idle_cycle_10k_ns": 50_000,
    },
    "BENCH_recalc.json": {
        # A 502-cell cone edit plus the repaint of an 80x24 view: ~30 ms
        # (mostly the 9,000-cell SUM); a per-record view walk is seconds.
        "view_edit_p50_ns": 150_000_000,
        # One change record per assignment; one per changed cell is 502.
        "notifications_per_edit": 4,
    },
}


def _numeric_leaves(obj, prefix=""):
    """Flatten to {dotted.path: number} for every int/float leaf."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = obj
    return out


def _summary_leaves(path: Path):
    # Only the curated ``summary`` block is compared: the raw registry
    # dump carries every timer percentile and would drown the signal
    # in shared-runner clock noise.
    return _numeric_leaves(json.loads(path.read_text()).get("summary", {}))


def _is_budgeted(name: str, field: str, waivers) -> bool:
    if field not in BUDGETS.get(name, {}):
        return False
    return not any(pat in field or pat in name for pat in waivers)


def _unit(field: str) -> str:
    if field.endswith("_bytes"):
        return "bytes"
    if field.endswith("_per_keystroke"):
        return "requests"
    if field.endswith("_per_edit"):
        return "records"
    if field.endswith("rows_repainted"):
        return "rows"
    return "ns"


def check_budgets(fresh_path: Path, fresh: dict, waivers) -> tuple:
    """Absolute ceilings: these hold even without a baseline."""
    errors, warnings = [], []
    for field, ceiling in BUDGETS.get(fresh_path.name, {}).items():
        if field not in fresh:
            errors.append(
                f"{fresh_path.name}: budgeted metric {field} missing "
                "from snapshot"
            )
            continue
        new = fresh[field]
        if new > ceiling:
            unit = _unit(field)
            line = (
                f"{fresh_path.name}: {field} = {new:.0f} {unit} exceeds "
                f"the {ceiling:.0f} {unit} budget "
                f"(+{(new / ceiling - 1) * 100:.0f}%)"
            )
            if _is_budgeted(fresh_path.name, field, waivers):
                errors.append(line)
            else:
                warnings.append(f"{line} [budget waived]")
    return errors, warnings


def compare(fresh_path: Path, fresh: dict, baseline_path: Path,
            waivers) -> tuple:
    baseline = _summary_leaves(baseline_path)
    errors, warnings = [], []
    for field, base in baseline.items():
        if base <= 0 or field not in fresh:
            continue
        new = fresh[field]
        leaf = field.rsplit(".", 1)[-1]
        line = None
        deterministic = False
        if leaf.endswith("_ns"):
            # Timings: slower is worse.
            if new > base * (1 + THRESHOLD):
                line = (
                    f"{fresh_path.name}: {field} slowed "
                    f"{base:.0f} -> {new:.0f} ns "
                    f"(+{(new / base - 1) * 100:.0f}%)"
                )
        elif leaf.endswith(("_bytes", "_per_keystroke", "_per_edit",
                            "rows_repainted")):
            # Wire/storage costs, device work, observer traffic and
            # scroll repaint rows: bigger is worse, and deterministic,
            # so drift here is a real change in what the code emits,
            # not clock noise.
            deterministic = True
            if new > base * (1 + THRESHOLD):
                line = (
                    f"{fresh_path.name}: {field} grew "
                    f"{base:.0f} -> {new:.0f} {_unit(field)} "
                    f"(+{(new / base - 1) * 100:.0f}%)"
                )
        elif "ratio" in leaf:
            # Reduction claims: smaller is worse.
            if new < base * (1 - THRESHOLD):
                line = (
                    f"{fresh_path.name}: {field} dropped "
                    f"{base:.1f} -> {new:.1f} "
                    f"(-{(1 - new / base) * 100:.0f}%)"
                )
        if line is None:
            continue
        if deterministic or _is_budgeted(fresh_path.name, field, waivers):
            errors.append(line)
        else:
            warnings.append(line)
    return errors, warnings


def main(argv) -> int:
    strict = "--strict" in argv
    waivers = []
    positional = []
    it = iter(argv)
    for arg in it:
        if arg == "--budget":
            waivers.append(next(it, ""))
        elif not arg.startswith("-"):
            positional.append(arg)
    paths = [Path(a) for a in positional]
    if not paths:
        paths = [Path(p) for p in sorted(glob.glob("BENCH_*.json"))]
    checked = 0
    errors = []
    warnings = []
    for fresh_path in paths:
        if not fresh_path.exists():
            print(f"note: {fresh_path} not present; skipped")
            continue
        checked += 1
        fresh = _summary_leaves(fresh_path)
        errs, warns = check_budgets(fresh_path, fresh, waivers)
        errors.extend(errs)
        warnings.extend(warns)
        baseline = BASELINE_DIR / fresh_path.name
        if baseline.exists():
            errs, warns = compare(fresh_path, fresh, baseline, waivers)
            errors.extend(errs)
            warnings.extend(warns)
        else:
            print(f"note: no committed baseline for {fresh_path.name}; "
                  "budgets only")
    if warnings:
        print(f"bench regression warnings ({len(warnings)}):")
        for line in warnings:
            print(f"  WARNING: {line}")
    if errors:
        print(f"bench regression FAILURES ({len(errors)}):")
        for line in errors:
            print(f"  ERROR: {line}")
    if not warnings and not errors:
        print(f"bench regression check: {checked} snapshot(s) within "
              f"{THRESHOLD:.0%} of committed baselines and budgets")
    return 1 if (errors or (strict and warnings)) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
