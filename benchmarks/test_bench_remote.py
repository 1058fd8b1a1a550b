"""E20 — remote display wire traffic (the ``repro.remote`` port).

The remote port's whole value proposition is that a frame costs a few
hundred bytes, not a full screen.  This bench drives the E16 editing
session — typing, scrolling, full exposes on the three-pane workspace
— through a :class:`~repro.remote.RemoteWindowSystem` and reports
bytes shipped per frame.  The reference is the full-screen keyframe
the same run ships first: after it the encoder ships scroll copies
verbatim plus a cell-level repair diff and skips flushes that changed
nothing at all, so both the mean frame and the whole session must
cost a fraction of shipping that keyframe at every step.

Outputs ``BENCH_remote.json`` (byte counts, encoder counters, the
reduction ratios) in the working directory; CI uploads it as an
artifact and compares it against the committed copy:
``check_regression.py`` fails on >20% growth in any ``*_bytes`` field
and on a bytes/frame budget.
"""

import json
import time

from conftest import report
from repro.components.drawing.drawdata import DrawingData
from repro.components.drawing.drawview import DrawView
from repro.components.drawing.shapes import EllipseShape, RectShape
from repro.components.split import SplitView
from repro.components.table.tabledata import TableData
from repro.components.table.tableview import TableView
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.core import InteractionManager
from repro.graphics import Rect
from repro.remote import (
    CaptureSink,
    RemoteRenderer,
    RemoteWindowSystem,
    decode_frame,
)

KEYSTROKES = 30
SCROLLS = 12
EXPOSES = 20
#: Event pumps in one run: the first paint plus one per session step.
STEPS = 1 + KEYSTROKES + SCROLLS + EXPOSES


def build_workspace(ws):
    """The E16 three-pane workspace, on the caller's window system."""
    im = InteractionManager(ws, width=78, height=22)
    text_view = TextView(TextData(
        "\n".join(f"paragraph {i:03d}: the quick brown fox jumps over "
                  "the lazy dog" for i in range(60))
    ))
    table = TableData(8, 3)
    for row in range(8):
        for col in range(3):
            table.set_cell(row, col, row * 10 + col)
    table_view = TableView(table)
    drawing = DrawingData()
    drawing.add_shape(RectShape(Rect(1, 1, 12, 5)))
    drawing.add_shape(EllipseShape(Rect(3, 2, 8, 4)))
    draw_view = DrawView(drawing)
    split = SplitView(text_view,
                      SplitView(table_view, draw_view, vertical=False),
                      vertical=True)
    im.set_child(split)
    im.set_focus(text_view)
    im.process_events()
    return im, text_view


def session(im, text_view, registry, timer_name):
    """The E16 editing session: typing, scrolling and full exposes."""
    for i in range(KEYSTROKES):
        im.window.inject_key("x")
        if i % 3 == 2:
            im.window.inject_expose()
        start = time.perf_counter_ns()
        im.process_events()
        registry.observe_ns(timer_name, time.perf_counter_ns() - start)
    for i in range(SCROLLS):
        text_view.set_scroll_pos(i * 3)
        im.process_events()
    for _ in range(EXPOSES):
        im.window.inject_expose()
        im.process_events()


def run_session(metrics, timer_name):
    sink = CaptureSink()
    ws = RemoteWindowSystem("ascii", sink=sink)
    im, text_view = build_workspace(ws)
    metrics.reset()
    session(im, text_view, metrics, timer_name)
    im.window.flush()

    # The stream is only a valid measurement if it reproduces the
    # sender's screen: decode it and compare before counting bytes.
    renderer = RemoteRenderer()
    renderer.feed(sink.stream())
    window = ws.windows[0]
    assert renderer.surface.lines() == window.surface.lines(), (
        "decoded replica diverged from the sender"
    )
    assert renderer.resyncs == 0 and renderer.frames_skipped == 0

    encoder = window._encoder
    frames = len(sink.frames)
    decoded = [decode_frame(data)[0] for data in sink.frames]
    assert decoded[0].keyframe and encoder.keyframes_sent == 1
    counters = {
        "keyframe_bytes": len(sink.frames[0]),
        "frames_sent_frames": frames,
        "keyframes_sent_frames": encoder.keyframes_sent,
        "total_bytes": sink.total_bytes,
        "per_frame_bytes": round(sink.total_bytes / max(1, frames), 1),
        "copies_shipped": sum(op[0] == "copy" for frame in decoded
                              for op in frame.ops),
        "cell_diff_cells": encoder.cell_diff_cells,
    }
    timer = metrics.timer(timer_name)
    counters["frame_p50_ns"] = timer.percentile(0.5) if timer else 0
    return counters


def test_bench_remote_bytes_per_frame(metrics):
    on = run_session(metrics, timer_name="bench.delta_ns")
    registry_snapshot = metrics.snapshot()

    # The headline claim: delta frames cut wire traffic >= 5x against
    # the full screen, both per shipped frame and over the whole
    # session (which also skips flushes that changed nothing, so it
    # is measured against a keyframe at every step).
    keyframe = on["keyframe_bytes"]
    frame_ratio = keyframe / max(1.0, on["per_frame_bytes"])
    session_ratio = keyframe * STEPS / max(1, on["total_bytes"])
    assert keyframe * STEPS > 50_000, on  # the workload ships real data
    assert frame_ratio >= 5.0, on
    assert session_ratio >= 5.0, on
    # Both delta modes engaged: scroll copies and cell diffs.
    assert on["copies_shipped"] > 0, on
    assert on["cell_diff_cells"] > 0, on
    # Flushes that changed nothing ship nothing.
    assert on["frames_sent_frames"] < STEPS, on

    summary = {
        "workload": {
            "keystrokes": KEYSTROKES,
            "scrolls": SCROLLS,
            "full_exposes": EXPOSES,
        },
        "bytes_ratio_keyframes_over_delta": round(session_ratio, 1),
        "frame_bytes_ratio_keyframe_over_delta": round(frame_ratio, 1),
        "delta": on,
    }
    with open("BENCH_remote.json", "w") as fh:
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    report("E20 remote display delta-encoding", [
        f"{KEYSTROKES} keystrokes (expose every 3rd), {SCROLLS} scrolls, "
        f"{EXPOSES} full exposes on the three-pane workspace",
        f"session bytes: {on['total_bytes']} against {keyframe * STEPS} "
        f"for a keyframe at each of {STEPS} steps "
        f"({session_ratio:.1f}x fewer)",
        f"bytes/frame: {on['per_frame_bytes']} against a {keyframe}-byte "
        f"keyframe ({frame_ratio:.1f}x smaller)",
        f"frames: {on['frames_sent_frames']} for {STEPS} steps "
        f"(keyframes {on['keyframes_sent_frames']})",
        f"copies_shipped={on['copies_shipped']} "
        f"cell_diff_cells={on['cell_diff_cells']}",
        "snapshot written to BENCH_remote.json",
    ])


def test_bench_remote_flush_timing(benchmark, metrics):
    """pytest-benchmark timing of one delta-encoded expose+ship."""
    sink = CaptureSink()
    ws = RemoteWindowSystem("ascii", sink=sink)
    im, _ = build_workspace(ws)
    im.window.inject_expose()
    im.process_events()

    def one_expose():
        im.window.inject_expose()
        im.process_events()

    benchmark(one_expose)
    assert sink.frames
