"""The closed-loop runner every workload shares.

A workload object provides:

* ``name``, ``warmup``, ``per_rep`` and ``reps``: ``inputs`` is
  ``warmup`` untimed inputs followed by ``per_rep`` timed ones, and an
  untraced run replays all of it ``reps`` times, each time on a fresh
  build (set-up, warm-up, the timed inputs, then the gate);
* ``inputs`` — the whole input stream, generated from the seed before
  anything is timed; each item is a tuple whose first element is its
  input kind;
* ``setup(lap)`` — read the documents from their datastreams, build
  the view tree and settle the first frame, calling ``lap()`` between
  steps (see :class:`SetupClock`); ``teardown()`` drops it;
* ``apply(item)`` — send one closed-loop item and return once it has
  settled.  It returns ``None`` (one input, timed from the call) or a
  list of ``(kind, start_ns)`` marks, one per input the item carries;
* ``failures()`` — a cumulative count of inputs the program failed
  (refused, resynced, errors contained);
* ``gate()`` — the correctness gate: a list of mismatches, empty when
  the program's output is right;
* ``idle_layers`` — per-layer metrics the workload must leave at zero.

Every pass starts from the same state and feeds the same inputs, so it
does the same work.  The machine does not: a shared host runs some
stretches markedly slower, from a second to minutes, and wall and CPU
time both stretch with it.  Two measures keep that out of the figures
while a change to the program still moves them:

* every timed item is followed, outside its timing, by a calibration
  burst (a fixed interpreter loop the program never touches), and the
  item's latency and CPU time are scaled to :data:`REFERENCE_BURST_NS`
  by the bursts around it (:func:`scaled`); set-ups are timed the same
  way in segments (:class:`SetupClock`);
* an input's scaled latency and CPU time are the least of its passes,
  taken input by input before the percentiles (:func:`best_of`).

``setup_s`` is the median of the passes' scaled set-ups.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro import obs
from repro.core import InteractionManager, compositor, faults, scrollblit
from repro.core.view import View
from repro.graphics import batch
from repro.testing import faultinject

import tracing

_clock = time.perf_counter_ns
_cpu = time.process_time_ns


class FailureProbe:
    """Counts errors the toolkit contains instead of raising them.

    With quarantine on (the default) a handler or render that raises is
    contained and the session carries on, but the input still failed.
    The probe wraps the containment boundaries: a view being
    quarantined, and the interaction manager's dispatch and repaint
    backstops.  It adds one call frame per event and per repaint pass.
    """

    def __init__(self) -> None:
        self.count = 0
        self._originals: List[tuple] = []

    def install(self) -> None:
        probe = self
        quarantine = View.__dict__["quarantine_failure"]

        def quarantine_failure(view, exc):
            probe.count += 1
            return quarantine(view, exc)

        self._patch(View, "quarantine_failure", quarantine_failure)
        for attr in ("_dispatch_event", "_repaint"):
            self._patch(InteractionManager, attr,
                        self._counting(InteractionManager.__dict__[attr]))

    def _counting(self, original):
        probe = self

        def counted(*args):
            try:
                return original(*args)
            except Exception:
                probe.count += 1
                raise

        return counted

    def _patch(self, owner, attr, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def switches() -> Dict[str, object]:
    """The effective ``ANDREW_*`` switches the run executed under."""
    return {
        "ANDREW_BATCH": batch.enabled,
        "ANDREW_COMPOSITOR": compositor.enabled,
        "ANDREW_SCROLLBLIT": scrollblit.enabled,
        "ANDREW_QUARANTINE": faults.enabled,
        "ANDREW_METRICS": obs.metrics_on,
        "ANDREW_TRACE": obs.trace_on,
        "ANDREW_FAULTS": faultinject.enabled,
    }


class Phase:
    """One timed pass over the timed inputs."""

    def __init__(self) -> None:
        self.latencies: List[tuple] = []  # (kind, ns), one per input
        self.item_cpu_ns: List[int] = []  # process CPU time, per item
        self.item_marks: List[int] = []  # inputs carried, per item
        self.cal_ns: List[int] = []  # calibration burst after each item
        self.attempted = 0
        self.failed = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def by_kind(self) -> Dict[str, dict]:
        groups: Dict[str, List[int]] = defaultdict(list)
        for kind, ns in self.latencies:
            groups[kind].append(ns)
        out = {}
        for kind in sorted(groups):
            values = sorted(groups[kind])
            out[kind] = {"count": len(values),
                         "p50_ms": percentile(values, 0.50) / 1e6,
                         "p95_ms": percentile(values, 0.95) / 1e6}
        return out

    def sorted_ms(self) -> List[float]:
        return sorted(ns / 1e6 for _kind, ns in self.latencies)


def run_phase(workload, failures, phase: Phase, seconds: float,
              tracer: Optional[tracing.Tracer] = None) -> None:
    """Feed the timed inputs into ``phase``, stopping early only if the
    pass outlasts ``seconds``.

    ``failures()`` is the cumulative failure count; an input whose
    closed-loop step raised it counts as failed.
    """
    gc.collect()
    wall0 = _clock()
    deadline = wall0 + int(seconds * 1e9)
    for index, item in enumerate(workload.inputs[workload.warmup:]):
        if _clock() > deadline:
            break
        before = failures()
        if tracer is not None:
            tracer.begin_input(index, item[0])
        c0 = _cpu()
        t0 = _clock()
        marks = workload.apply(item)
        if tracer is not None:
            tracer.end_input()
        t1 = _clock()
        c1 = _cpu()
        if tracer is not None:
            tracer.inputs[-1]["latency_ns"] = t1 - t0
        if marks is None:
            marks = ((item[0], t0),)
        for kind, started in marks:
            phase.latencies.append((kind, t1 - started))
        phase.item_cpu_ns.append(c1 - c0)
        phase.item_marks.append(len(marks))
        phase.cal_ns.append(calibration_burst())
        phase.attempted += len(marks)
        lost = failures() - before
        if lost:
            phase.failed += min(len(marks), lost)
    phase.cpu_s = sum(phase.item_cpu_ns) / 1e9
    phase.wall_s = (_clock() - wall0) / 1e9


#: A fixed permutation of the small integers the calibration loop
#: walks; CPython caches ints below 257, so the loop allocates nothing
#: and neither the collector nor an allocation hook can touch it.
_SPIN_TABLE = tuple(random.Random(11).sample(range(256), 256))
_SPIN_ROUNDS = 12
#: The calibration burst's time between inputs with the host idle (a
#: 2-vCPU Xeon VM, CPython 3.11); latencies and CPU times are scaled to
#: this speed.
REFERENCE_BURST_NS = 62_000
#: Bursts around an item that give its local machine speed.
SPEED_WINDOW = 15
#: Bursts before and after a set-up, besides those between its laps.
SETUP_BURSTS = 8


def calibration_burst() -> int:
    """Time a fixed interpreter loop that does not touch the program."""
    table = _SPIN_TABLE
    value = 0
    for step in table:  # untimed: bring the loop back into the caches
        value = table[value ^ step]
    t0 = _clock()
    for _ in range(_SPIN_ROUNDS):
        for step in table:
            value = table[value ^ step]
    return _clock() - t0


def local_speed(bursts: List[int], index: int) -> float:
    """The median of the :data:`SPEED_WINDOW` bursts around ``index``."""
    window = min(SPEED_WINDOW, len(bursts))
    low = max(0, min(index - window // 2, len(bursts) - window))
    return statistics.median(bursts[low:low + window])


def scaled(phase: Phase) -> Phase:
    """``phase`` with each item's latency and CPU time scaled by the
    machine's speed around it: the median of the calibration bursts
    next to it, against :data:`REFERENCE_BURST_NS`.  The burst runs
    after every item, outside its timing, so a stretch in which the
    shared host runs everything slower stretches both alike."""
    out = Phase()
    position = 0
    for index, marks in enumerate(phase.item_marks):
        factor = REFERENCE_BURST_NS / local_speed(phase.cal_ns, index)
        for _ in range(marks):
            kind, ns = phase.latencies[position]
            out.latencies.append((kind, ns * factor))
            position += 1
        out.item_cpu_ns.append(phase.item_cpu_ns[index] * factor)
    out.item_marks = list(phase.item_marks)
    out.cal_ns = list(phase.cal_ns)
    out.attempted = phase.attempted
    out.cpu_s = sum(out.item_cpu_ns) / 1e9
    return out


def best_of(phases: List[Phase]) -> Phase:
    """Input by input, the least latency and CPU time over the passes
    (the passes feed the same inputs; an input a pass cut short never
    reached is taken from the passes that did)."""
    best = Phase()
    longest = max(phases, key=lambda p: len(p.item_marks))
    best.item_marks = list(longest.item_marks)
    for index in range(len(longest.latencies)):
        best.latencies.append((longest.latencies[index][0], min(
            p.latencies[index][1] for p in phases
            if index < len(p.latencies))))
    for index in range(len(longest.item_cpu_ns)):
        best.item_cpu_ns.append(min(
            p.item_cpu_ns[index] for p in phases
            if index < len(p.item_cpu_ns)))
    best.attempted = len(best.latencies)
    best.cpu_s = sum(best.item_cpu_ns) / 1e9
    return best


class SetupClock:
    """Times a set-up in segments, with a calibration burst between
    them (outside the timing), so each segment can be scaled by the
    machine speed around it.  The workload calls :meth:`lap` at points
    where pausing is harmless, such as between the fleet's sessions."""

    def __init__(self) -> None:
        self.segment_ns: List[int] = []
        self.burst_ns = [calibration_burst() for _ in range(SETUP_BURSTS)]
        self._t0 = _clock()

    def lap(self) -> None:
        self.segment_ns.append(_clock() - self._t0)
        self.burst_ns.append(calibration_burst())
        self._t0 = _clock()

    def stop(self) -> tuple:
        """Seconds scaled to the reference speed, and as measured."""
        self.segment_ns.append(_clock() - self._t0)
        self.burst_ns += [calibration_burst() for _ in range(SETUP_BURSTS)]
        scaled_ns = sum(
            ns * REFERENCE_BURST_NS / local_speed(self.burst_ns,
                                                  SETUP_BURSTS + index)
            for index, ns in enumerate(self.segment_ns))
        return scaled_ns / 1e9, sum(self.segment_ns) / 1e9


def time_setup(workload) -> tuple:
    """Replace the live build with a fresh one; returns the seconds it
    took, scaled and as measured (see :class:`SetupClock`)."""
    workload.teardown()
    gc.collect()
    clock = SetupClock()
    workload.setup(clock.lap)
    return clock.stop()


def warm_up(workload) -> None:
    for item in workload.inputs[:workload.warmup]:
        workload.apply(item)


def pass_seconds(workload, seconds: float) -> float:
    """Time cap of one pass: three times its nominal share of the run,
    so only a program several times slower than nominal is cut short."""
    return 3 * seconds / workload.reps


def run(workload, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    """One benchmark run; returns the result object the driver reads."""
    probe = FailureProbe()
    probe.install()

    def failures() -> int:
        return probe.count + workload.failures()

    tracer = tracing.Tracer() if trace else None
    passes: List[Phase] = []
    traced = None
    setup_acc: Dict[str, float] = {}
    setup_times: List[tuple] = []
    mismatches: List[str] = []
    try:
        if tracer is None:
            for _ in range(workload.reps):
                setup_times.append(time_setup(workload))
                warm_up(workload)
                passes.append(Phase())
                run_phase(workload, failures, passes[-1],
                          pass_seconds(workload, seconds))
                mismatches += workload.gate()
        else:
            tracing.install_datastream(tracer)
            setup_times.append(time_setup(workload))
            setup_acc = dict(tracer.acc)
            tracer.uninstall()
            tracer.acc.clear()
            # An untraced then a traced pass over the same inputs from
            # the same state: the gap between the two is the tracing
            # overhead.
            warm_up(workload)
            passes.append(Phase())
            run_phase(workload, failures, passes[-1],
                      pass_seconds(workload, seconds))
            mismatches += workload.gate()
            setup_times.append(time_setup(workload))
            warm_up(workload)
            traced = Phase()
            tracing.install_layers(tracer)
            try:
                run_phase(workload, failures, traced, seconds, tracer)
            finally:
                tracer.uninstall()
            mismatches += workload.gate()
    finally:
        probe.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phase = best_of([scaled(p) for p in passes])
    phases = passes if traced is None else passes + [traced]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(mismatches)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            "switches": switches(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "parameters": workload.parameters(),
            "warmup_inputs_per_pass": workload.warmup,
            "timed_items_per_pass": workload.per_rep,
            "passes": len(phases),
            "passes_cut_short": sum(
                len(p.item_marks) < workload.per_rep for p in phases),
        },
        "inputs_per_kind": {},
        "setup_s_each": [scaled_s for scaled_s, _raw in setup_times],
        "setup_s_each_unscaled": [raw for _scaled, raw in setup_times],
        "gate_mismatches": mismatches,
        # Best of the passes, scaled to the reference speed: what the
        # metrics are read from.
        "untraced": summarize(phase),
        # The same without the scaling, and every pass as measured.
        "untraced_unscaled": summarize(best_of(passes)),
        "untraced_each_pass": [summarize(p) for p in passes],
    }
    for p in phases:
        for kind, _ns in p.latencies:
            detail["inputs_per_kind"][kind] = (
                detail["inputs_per_kind"].get(kind, 0) + 1)

    if traced is None:
        latencies = phase.sorted_ms()
        metrics = {
            "setup_s": (statistics.median(
                scaled_s for scaled_s, _raw in setup_times), "s"),
            "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
            "latency_p95_ms": (percentile(latencies, 0.95), "ms"),
            "inputs_per_cpu_s": (phase.attempted / max(phase.cpu_s, 1e-9),
                                 "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        detail["traced"] = summarize(traced)
        scrolls = sum(1 for kind, _ns in traced.latencies if kind == "scroll")
        layers = tracing.layer_metrics(tracer.inputs, scrolls, setup_acc)
        reconciliation = tracing.reconcile(tracer.inputs)
        layers["trace.overhead_ms"] = tracing_overhead(
            detail["untraced_unscaled"]["per_kind"],
            detail["traced"]["per_kind"])
        layers["trace.residual_ms"] = reconciliation["residual_ms"]
        layers["trace.reconciled_frac"] = reconciliation[
            "within_tolerance_frac"]
        detail["reconciliation"] = reconciliation
        detail["isolation_violations"] = {
            name: layers[name] for name in workload.idle_layers
            if layers[name] != 0}
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(
            out_dir, f"{workload.name}-seed{seed}.trace.json")
        tracer.write_chrome_trace(trace_path)
        detail["chrome_trace"] = os.path.relpath(trace_path)
        metrics = {name: (value, tracing.UNITS[name])
                   for name, value in layers.items()}

    detail["metrics"] = {name: value for name, (value, _u) in metrics.items()}
    os.makedirs(out_dir, exist_ok=True)
    detail_path = os.path.join(
        out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}.json")
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=2, default=str)
    report(detail, detail_path)
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def tracing_overhead(untraced: dict, traced: dict) -> float:
    """Traced minus untraced median latency, per input kind, weighted
    by the traced input counts (so a different mix of kinds in the two
    stretches does not read as overhead)."""
    total = weight = 0
    for kind, row in traced.items():
        if kind in untraced:
            total += row["count"] * (row["p50_ms"] - untraced[kind]["p50_ms"])
            weight += row["count"]
    return total / weight if weight else 0.0


def summarize(phase: Phase) -> dict:
    values = phase.sorted_ms()
    return {
        "calibration_burst_us": (statistics.median(phase.cal_ns) / 1e3
                                 if phase.cal_ns else None),
        "inputs": phase.attempted,
        "failed": phase.failed,
        "wall_s": phase.wall_s,
        "cpu_s": phase.cpu_s,
        "mean_ms": statistics.fmean(values) if values else 0.0,
        "p50_ms": percentile(values, 0.50),
        "p95_ms": percentile(values, 0.95),
        "per_kind": phase.by_kind(),
    }


def report(detail: dict, path: str) -> None:
    """Human-readable lines ahead of the result line."""
    out = sys.stdout
    print(f"workload {detail['workload']} seed {detail['seed']} "
          f"trace {int(detail['trace'])}", file=out)
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True),
          file=out)
    print("inputs_per_kind " + json.dumps(detail["inputs_per_kind"],
                                          sort_keys=True), file=out)
    for label in ("untraced", "untraced_unscaled", "traced"):
        summary = detail.get(label)
        if summary is None:
            continue
        for kind, row in summary["per_kind"].items():
            print(f"{label} {kind:10s} n={row['count']:6d} "
                  f"p50={row['p50_ms']:.3f}ms p95={row['p95_ms']:.3f}ms",
                  file=out)
    if "reconciliation" in detail:
        print("reconciliation " + json.dumps(detail["reconciliation"]),
              file=out)
        print("isolation_violations "
              + json.dumps(detail["isolation_violations"]), file=out)
        print(f"chrome_trace {detail['chrome_trace']}", file=out)
    for mismatch in detail["gate_mismatches"]:
        print(f"GATE MISMATCH {mismatch}", file=out)
    print(f"detail {os.path.relpath(path)}", file=out)
