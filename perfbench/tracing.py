"""Layer spans for the traced run, recorded from outside ``src/``.

The traced run wraps the public entry points of each layer (see
:func:`install_layers`).  A wrapper either opens a *span* — it sits on the
span stack, so calls it makes into other wrapped layers become its
children and its self time is its duration minus theirs — or is a
*leaf*: a hot, non-reentrant device-level call that is timed and/or
counted without a stack frame, so the trace stays small and the
overhead bounded.  A leaf's time is subtracted from its caller's self
time like a child span's.

Per input the harness opens a root frame (:meth:`Tracer.begin_input`);
the root's self time is the *residual*: time inside the input that no
wrapped layer accounts for.  Self times plus the residual add up to the
root's duration by construction, and :func:`reconcile` checks them
against the latency the harness measured independently around the
root.  Spans are kept in memory (the first :data:`SPAN_CAP`) and
written as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open as-is.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.components.drawing.drawview import DrawView
from repro.components.table.recalc import DependencyGraph
from repro.components.table.tabledata import TableData
from repro.components.table.tableview import TableView
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.core import InteractionManager
from repro.core import datastream
from repro.graphics.batch import CommandBuffer
from repro.graphics.graphic import Graphic
from repro.remote.encoder import FrameEncoder
from repro.remote.renderer import RemoteRenderer
from repro.remote.transport import RendererSink
from repro.server.serverloop import ServerLoop
from repro.server.session import Session
from repro.wm.ascii_ws import AsciiGraphic

#: Spans kept for the Chrome trace file; aggregation covers every call.
SPAN_CAP = 60_000
#: A traced input reconciles when the harness-measured latency and the
#: root frame's duration (self times + residual) differ by at most this
#: share of the latency, or by RECONCILE_FLOOR_NS, whichever is larger.
RECONCILE_TOLERANCE = 0.05
RECONCILE_FLOOR_NS = 20_000

_now = time.perf_counter_ns


class Tracer:
    """Span stack plus per-input accumulators."""

    def __init__(self) -> None:
        # Frame: [start_ns, child_ns, span_index]
        self.stack: List[list] = []
        self.acc: Dict[str, float] = defaultdict(float)
        self.inputs: List[Dict[str, float]] = []
        #: (name, parent, input) while open; start and end appended on close.
        self.spans: List[tuple] = []
        self.input_id = -1
        self._installed: List[tuple] = []

    # -- per-input framing ------------------------------------------------

    def begin_input(self, input_id: int, kind: str) -> None:
        self.input_id = input_id
        self.acc = defaultdict(float)
        self._open("input:" + kind)

    def end_input(self) -> None:
        """Close the root frame; the harness adds ``latency_ns``."""
        start, child_ns, index = self.stack.pop()
        end = _now()
        duration = end - start
        self._close_span(index, start, end)
        self.acc["root_ns"] = duration
        self.acc["residual_ns"] = duration - child_ns
        self.inputs.append(self.acc)
        self.acc = defaultdict(float)
        self.input_id = -1

    def _open(self, name: str) -> None:
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            parent = self.stack[-1][2] if self.stack else -1
            self.spans.append((name, parent, self.input_id))
        self.stack.append([_now(), 0, index])

    def _close_span(self, index: int, start: int, end: int) -> None:
        if index >= 0:
            label, parent, input_id = self.spans[index]
            self.spans[index] = (label, parent, input_id, start, end)

    # -- wrapping ---------------------------------------------------------

    def span(self, owner, attr: str, name: str, *, self_key=None,
             total_key=None, calls_key=None,
             before: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` in a span frame.

        ``before(args)`` runs ahead of the call and its value reaches
        ``on_result(acc, args, result, before_value, duration_ns)``
        afterwards.
        """
        original = owner.__dict__[attr]
        tracer = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            tracer._open(name)
            duration = 0
            try:
                result = original(*args, **kwargs)
            finally:
                start, child_ns, index = stack.pop()
                end = _now()
                duration = end - start
                tracer._close_span(index, start, end)
                acc = tracer.acc
                acc["attributed_ns"] += duration - child_ns
                if self_key:
                    acc[self_key] += duration - child_ns
                if total_key:
                    acc[total_key] += duration
                if calls_key:
                    acc[calls_key] += 1
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(tracer.acc, args, result, token, duration)
            return result

        self._install(owner, attr, original, wrapper)

    def leaf(self, owner, attr: str, *, time_key=None, count_key=None,
             on_call: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` as a leaf: counted, optionally timed."""
        original = owner.__dict__[attr]
        tracer = self
        stack = self.stack

        if time_key is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                acc = tracer.acc
                if count_key:
                    acc[count_key] += 1
                if on_call is not None:
                    on_call(acc, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                start = _now()
                result = original(*args, **kwargs)
                duration = _now() - start
                acc = tracer.acc
                acc[time_key] += duration
                acc["attributed_ns"] += duration
                if count_key:
                    acc[count_key] += 1
                if on_call is not None:
                    on_call(acc, args, result)
                if stack:
                    stack[-1][1] += duration
                return result

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- export -----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Closed spans as Chrome trace-event JSON ("X" events, µs)."""
        closed = [(index, span) for index, span in enumerate(self.spans)
                  if len(span) == 5]
        origin = min((span[3] for _, span in closed), default=0)
        events = []
        for index, (name, parent, input_id, start, end) in closed:
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"input": input_id, "span": index,
                         "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ---------------------------------------------------------------------------
# The layer table: what each per-layer metric wraps.
# ---------------------------------------------------------------------------

def _damage(acc, args, _result) -> None:
    _im, view, rect = args
    acc["im.damage_cells"] += (rect if rect is not None else view.bounds).area


def _repaint_passes(acc, _args, result, _token, _ns) -> None:
    acc["im.repaint_passes"] += result or 0


def _glyphs(acc, args, _result) -> None:
    acc["wm.glyphs"] += len(args[3])


def _cone(acc, _args, result) -> None:
    acc["table.cone_cells"] += len(result)
    acc["table.cones"] += 1


def _replayed(acc, _args, result, _token, duration) -> None:
    # A flush with nothing recorded (the gate is off) is not batch work.
    if result:
        acc["batch.replayed_ops"] += result
        acc["batch.flush"] += duration


def _keyframes_before(args) -> int:
    return args[0].keyframes_sent


def _encoded(acc, args, result, keyframes_before, _ns) -> None:
    if result is not None:
        acc["encoder.frames"] += 1
        acc["encoder.bytes"] += len(result)
        acc["encoder.keyframes"] += args[0].keyframes_sent - keyframes_before


def _sent(acc, args, _result, _token, _ns) -> None:
    acc["wire.bytes"] += len(args[1])


def _resyncs_before(args) -> int:
    return args[0].resyncs


def _fed(acc, args, _result, resyncs_before, _ns) -> None:
    acc["renderer.resyncs"] += args[0].resyncs - resyncs_before


def _submitted(acc, _args, result) -> None:
    acc["server.submits"] += 1
    if not result:
        acc["server.refused"] += 1


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point named in the per-layer table."""
    im = InteractionManager
    tracer.span(im, "handle_event", "im.dispatch", self_key="im.dispatch")
    tracer.span(im, "flush_updates", "im.flush", self_key="im.flush",
                on_result=_repaint_passes)
    tracer.leaf(im, "post_update", on_call=_damage)
    tracer.span(TextView, "layout", "text.layout", self_key="text.layout.self",
                total_key="text.layout", calls_key="text.layout_calls")
    tracer.span(TextView, "draw", "text.draw", self_key="text.draw")
    for name in ("insert", "delete"):
        tracer.span(TextData, name, "text.edit", self_key="text.edit")
    tracer.span(TableData, "set_cell", "table.recalc",
                self_key="table.recalc")
    tracer.span(TableView, "on_data_changed", "table.view_update",
                self_key="table.view_update")
    tracer.leaf(DependencyGraph, "dirty_cone", on_call=_cone)
    tracer.span(TableView, "draw", "table.draw", self_key="table.draw")
    tracer.span(DrawView, "draw", "drawing.draw", self_key="drawing.draw")
    tracer.leaf(Graphic, "copy_area", count_key="scrollblit.shifts")
    for name in ("fill_rect", "set_pixel", "copy_area", "hline", "vline",
                 "blit"):
        tracer.leaf(AsciiGraphic, "device_" + name, time_key="wm.device",
                    count_key="wm.device_ops")
    tracer.leaf(AsciiGraphic, "device_draw_text", time_key="wm.device",
                count_key="wm.device_ops", on_call=_glyphs)
    for name in ("fill", "hline", "vline", "text", "pixel", "blit",
                 "copy_area"):
        tracer.leaf(CommandBuffer, "record_" + name,
                    count_key="batch.recorded_ops")
    tracer.span(CommandBuffer, "flush", "batch.flush",
                self_key="batch.flush.self", on_result=_replayed)
    tracer.span(FrameEncoder, "encode", "encoder.encode",
                self_key="encoder.encode.self", total_key="encoder.encode",
                before=_keyframes_before, on_result=_encoded)
    tracer.span(RendererSink, "send", "transport.send",
                self_key="transport.send", on_result=_sent)
    tracer.span(RemoteRenderer, "feed", "renderer.apply",
                self_key="renderer.apply.self", total_key="renderer.apply",
                before=_resyncs_before, on_result=_fed)
    tracer.span(ServerLoop, "run_cycle", "server.cycle",
                self_key="server.cycle.self", total_key="server.cycle",
                calls_key="server.cycles")
    tracer.span(Session, "pump", "server.pump", self_key="server.pump.self",
                total_key="server.pump", calls_key="server.slices")
    tracer.leaf(Session, "submit", on_call=_submitted)


def install_datastream(tracer: Tracer) -> None:
    """Wrap ``read_document`` for the set-up metrics."""

    def _read(acc, args, _result, _token, _ns) -> None:
        source = args[0]
        acc["datastream.bytes"] += len(source) if isinstance(source, str) else 0

    tracer.span(datastream, "read_document", "datastream.read",
                total_key="datastream.read", on_result=_read)


# Self-time keys that partition a traced input's latency, by layer.
SELF_KEYS = {
    "im": ("im.dispatch", "im.flush"),
    "text": ("text.edit", "text.layout.self", "text.draw"),
    "table": ("table.recalc", "table.view_update", "table.draw"),
    "drawing": ("drawing.draw",),
    "wm": ("wm.device",),
    "batch": ("batch.flush.self",),
    "encoder": ("encoder.encode.self",),
    "transport": ("transport.send",),
    "renderer": ("renderer.apply.self",),
    "server": ("server.cycle.self", "server.pump.self"),
}


def reconcile(inputs: List[Dict[str, float]]) -> dict:
    """Self times + residual against the independently measured latency."""
    n = max(1, len(inputs))
    within = 0
    worst = 0.0
    layers = {layer: 0.0 for layer in SELF_KEYS}
    residual = latency = attributed = 0.0
    for acc in inputs:
        gap = abs(acc["latency_ns"] - (acc["attributed_ns"]
                                       + acc["residual_ns"]))
        if gap <= max(RECONCILE_FLOOR_NS,
                      RECONCILE_TOLERANCE * acc["latency_ns"]):
            within += 1
        worst = max(worst, gap / max(1.0, acc["latency_ns"]))
        for layer, keys in SELF_KEYS.items():
            layers[layer] += sum(acc.get(key, 0.0) for key in keys)
        residual += acc["residual_ns"]
        latency += acc["latency_ns"]
        attributed += acc["attributed_ns"]
    return {
        "tolerance": f"|latency - (self + residual)| <= max("
                     f"{RECONCILE_TOLERANCE:.0%} of latency, "
                     f"{RECONCILE_FLOOR_NS / 1000:.0f} us)",
        "inputs": len(inputs),
        "within_tolerance_frac": within / n,
        "worst_gap_frac": worst,
        "latency_ms": latency / n / 1e6,
        "layer_self_ms": {k: v / n / 1e6 for k, v in layers.items()},
        "unlisted_self_ms": (attributed - sum(layers.values())) / n / 1e6,
        "residual_ms": residual / n / 1e6,
    }


UNITS = {
    "im.dispatch_ms": "ms", "im.flush_ms": "ms", "im.damage_cells": "count",
    "im.repaint_passes": "count", "text.layout_ms": "ms",
    "text.layout_calls": "count", "text.draw_ms": "ms", "text.edit_ms": "ms",
    "table.recalc_ms": "ms", "table.cone_cells": "count",
    "table.view_update_ms": "ms",
    "table.draw_ms": "ms", "drawing.draw_ms": "ms",
    "scrollblit.shifts_per_scroll": "count", "wm.device_ops": "count",
    "wm.device_ms": "ms", "wm.glyphs": "count", "batch.recorded_ops": "count",
    "batch.replayed_ops": "count", "batch.flush_ms": "ms",
    "encoder.encode_ms": "ms", "encoder.bytes_per_frame": "B",
    "encoder.frames_per_input": "count", "encoder.keyframes": "count",
    "transport.send_ms": "ms", "wire_bytes_per_input": "B",
    "renderer.apply_ms": "ms", "renderer.resyncs": "count",
    "server.cycle_overhead_ms": "ms", "server.pump_ms": "ms",
    "server.refused_frac": "ratio", "datastream.read_ms": "ms",
    "datastream.bytes": "B", "trace.overhead_ms": "ms",
    "trace.residual_ms": "ms", "trace.reconciled_frac": "ratio",
}


def layer_metrics(inputs: List[Dict[str, float]], scrolls: int,
                  setup: Dict[str, float]) -> Dict[str, float]:
    """The per-layer table, averaged per input unless stated."""
    total: Dict[str, float] = defaultdict(float)
    for acc in inputs:
        for key, value in acc.items():
            total[key] += value
    n = max(1, len(inputs))

    def per_input(key: str, scale: float = 1.0) -> float:
        return total[key] / n / scale

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return total[num] / total[den] / scale if total[den] else 0.0

    ms = 1e6
    return {
        "im.dispatch_ms": per_input("im.dispatch", ms),
        "im.flush_ms": per_input("im.flush", ms),
        "im.damage_cells": per_input("im.damage_cells"),
        "im.repaint_passes": per_input("im.repaint_passes"),
        "text.layout_ms": per_input("text.layout", ms),
        "text.layout_calls": per_input("text.layout_calls"),
        "text.draw_ms": per_input("text.draw", ms),
        "text.edit_ms": per_input("text.edit", ms),
        "table.recalc_ms": per_input("table.recalc", ms),
        "table.cone_cells": ratio("table.cone_cells", "table.cones"),
        "table.view_update_ms": per_input("table.view_update", ms),
        "table.draw_ms": per_input("table.draw", ms),
        "drawing.draw_ms": per_input("drawing.draw", ms),
        "scrollblit.shifts_per_scroll": (total["scrollblit.shifts"] / scrolls
                                         if scrolls else 0.0),
        "wm.device_ops": per_input("wm.device_ops"),
        "wm.device_ms": per_input("wm.device", ms),
        "wm.glyphs": per_input("wm.glyphs"),
        "batch.recorded_ops": per_input("batch.recorded_ops"),
        "batch.replayed_ops": per_input("batch.replayed_ops"),
        "batch.flush_ms": per_input("batch.flush", ms),
        "encoder.encode_ms": per_input("encoder.encode", ms),
        "encoder.bytes_per_frame": ratio("encoder.bytes", "encoder.frames"),
        "encoder.frames_per_input": per_input("encoder.frames"),
        "encoder.keyframes": per_input("encoder.keyframes"),
        "transport.send_ms": per_input("transport.send", ms),
        "wire_bytes_per_input": per_input("wire.bytes"),
        "renderer.apply_ms": per_input("renderer.apply", ms),
        "renderer.resyncs": total["renderer.resyncs"],
        "server.cycle_overhead_ms": (
            (total["server.cycle"] - total["server.pump"])
            / total["server.cycles"] / ms if total["server.cycles"] else 0.0),
        "server.pump_ms": ratio("server.pump", "server.slices", ms),
        "server.refused_frac": ratio("server.refused", "server.submits"),
        "datastream.read_ms": setup.get("datastream.read", 0.0) / ms,
        "datastream.bytes": setup.get("datastream.bytes", 0.0),
    }
