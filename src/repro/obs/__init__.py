"""``repro.obs`` — the toolkit's zero-dependency telemetry subsystem.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.trace.Tracer` serve every layer: the delayed-update
queue, the interaction manager, observer fan-out, the class loader,
both window-system backends, the datastream and runapp.  Benchmarks
read the same registry, so the paper's E1–E13 figures share a single
measurement source.

Switched on by environment variable, off by default:

* ``ANDREW_METRICS=1`` — counters, gauges, timers.
* ``ANDREW_TRACE=1``  — span tracing (implies nothing about metrics;
  set both for the full picture).

The **off path is near-zero overhead**: instrumentation sites test one
module-level boolean (``obs.metrics_on`` / ``obs.trace_on``) and skip
all recording work — no registry lookups, no clock reads, no allocation.
Tests and benchmarks may flip telemetry at run time with
:func:`configure`; toolkit behaviour must be identical either way
(enforced by the parity tests in ``tests/test_obs.py``).

Metric naming convention: ``<seam>.<event>`` with dots, e.g.
``update.enqueued``, ``im.dispatch_ns``, ``notify.exceptions``,
``loader.cold``.  The full table lives in DESIGN.md §"Telemetry".
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from ..config import env_flag
from .metrics import MetricsRegistry, TimerStat
from .report import render_json as _render_json
from .report import render_text as _render_text
from .trace import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "TimerStat",
    "Tracer",
    "Span",
    "registry",
    "tracer",
    "metrics_on",
    "trace_on",
    "metrics_enabled",
    "trace_enabled",
    "configure",
    "timed",
    "span",
    "snapshot",
    "render_text",
    "render_json",
    "reset",
]

METRICS_ENV = "ANDREW_METRICS"
TRACE_ENV = "ANDREW_TRACE"

#: The process-wide registry and tracer.  These objects always exist —
#: only *recording into them* is gated on the flags below — so readers
#: (reporters, benches) never need None checks.
registry = MetricsRegistry()
tracer = Tracer()

#: Hot-path switches.  Instrumentation sites read these module
#: attributes directly:  ``if obs.metrics_on: obs.registry.inc(...)``.
metrics_on: bool = env_flag(METRICS_ENV, False)
trace_on: bool = env_flag(TRACE_ENV, False)


def metrics_enabled() -> bool:
    return metrics_on


def trace_enabled() -> bool:
    return trace_on


def configure(metrics: Optional[bool] = None,
              trace: Optional[bool] = None,
              reset_data: bool = False) -> None:
    """Flip telemetry at run time (tests, benches, embedding apps).

    ``None`` leaves a switch unchanged.  ``reset_data=True`` also clears
    the registry and the trace ring.
    """
    global metrics_on, trace_on
    if metrics is not None:
        metrics_on = bool(metrics)
    if trace is not None:
        trace_on = bool(trace)
    if reset_data:
        reset()


def reset() -> None:
    """Clear all recorded metrics and retained spans."""
    registry.reset()
    tracer.clear()


# ---------------------------------------------------------------------------
# Recording helpers (each checks its switch; safe to call unconditionally)
# ---------------------------------------------------------------------------

class _NullContext:
    """Shared do-nothing context manager for the disabled paths."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_CONTEXT = _NullContext()


class _Timed:
    """Times a region into ``registry`` as timer ``name``."""

    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        registry.observe_ns(
            self._name, time.perf_counter_ns() - self._start
        )
        return None


def timed(name: str):
    """``with obs.timed("im.dispatch_ns"): ...`` — no-op when off."""
    if not metrics_on:
        return _NULL_CONTEXT
    return _Timed(name)


def span(name: str, **meta: Any):
    """``with obs.span("im.flush"): ...`` — no-op when tracing is off."""
    if not trace_on:
        return _NULL_CONTEXT
    return tracer.span(name, **meta)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def snapshot() -> Dict[str, Any]:
    """Point-in-time metrics snapshot (see ``MetricsRegistry.snapshot``)."""
    return registry.snapshot()


def render_text() -> str:
    """The text report: metrics, plus the trace when tracing is on."""
    trace_records = tracer.snapshot() if trace_on else None
    return _render_text(registry.snapshot(), trace_records)


def render_json() -> str:
    trace_records = tracer.snapshot() if trace_on else None
    return _render_json(registry.snapshot(), trace_records)
