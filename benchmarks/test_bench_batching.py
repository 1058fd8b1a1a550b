"""E16 — batched drawable command buffers (the ``ANDREW_BATCH`` gate).

On a remote window system every device operation is one protocol
round trip, so the metric that matters is *requests issued*.  This
bench drives the three-pane workspace through a scrolling editing
session and a storm of full-window exposes, with the command buffer
off and on, and reports the request reduction the coalescer buys.

The coalescer's big win is text drawn glyph by glyph: same-baseline
runs collapse into single ``draw_text`` requests.  The toolkit's own
``TextView`` already issues one request per style run, so the headline
arm puts a *glyph client* in the text pane — the same view, painting
through a drawable that splits every string into one request per glyph,
the way a character-cell client (a terminal emulator, a hand-rolled
editor) drives the device.  The stock workspace is measured too: there
batching must never add a request, and the snapshot records how many
it still removes.

Outputs ``BENCH_batching.json`` (request counts per arm, coalescing
counters, flush-latency stats) in the working directory; CI uploads it
as an artifact and compares it against the committed copy.
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
from repro.graphics import Rect, batch
from repro.wm import AsciiWindowSystem

KEYSTROKES = 30
SCROLLS = 12
EXPOSES = 20

_WORK_COUNTERS = (
    "wm.ascii.requests",
    "wm.ascii.draw_text",
    "wm.ascii.fill_rect",
    "wm.requests_batched",
    "wm.ops_coalesced",
    "wm.batch_flushes",
    "wm.batch_ops_replayed",
)


class GlyphByGlyph:
    """A drawable that issues one ``draw_string`` request per glyph."""

    def __init__(self, graphic) -> None:
        self._graphic = graphic

    def __getattr__(self, name):
        return getattr(self._graphic, name)

    def draw_string(self, x: int, y: int, text: str) -> None:
        for char in text:
            self._graphic.draw_string(x, y, char)
            x += self._graphic.string_width(char)


class GlyphTextView(TextView):
    """``TextView`` painted glyph by glyph: the per-glyph client."""

    def draw(self, graphic) -> None:
        super().draw(GlyphByGlyph(graphic))


def build_workspace(text_view_class=TextView):
    """Text | (table / drawing) — the paper-figure window shape."""
    ws = AsciiWindowSystem()
    im = InteractionManager(ws, width=78, height=22)
    text_view = text_view_class(TextData(
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
    """Typing, scrolling and full exposes — a request-heavy session."""
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


def run_arm(metrics, batching, timer_name, text_view_class=TextView):
    was = batch.enabled
    batch.configure(batching)
    try:
        im, text_view = build_workspace(text_view_class)
        metrics.reset()
        session(im, text_view, metrics, timer_name)
        counters = {name: metrics.counter(name) for name in _WORK_COUNTERS}
        flush = metrics.timer("wm.batch_flush_ns")
        counters["batch_flush_p50_ns"] = flush.percentile(0.5) if flush else 0
        timer = metrics.timer(timer_name)
        counters["frame_p50_ns"] = timer.percentile(0.5) if timer else 0
        return counters
    finally:
        batch.configure(was)


def test_bench_batching_request_reduction(metrics):
    off = run_arm(metrics, batching=False, timer_name="bench.immediate_ns",
                  text_view_class=GlyphTextView)
    metrics.reset()
    on = run_arm(metrics, batching=True, timer_name="bench.batched_ns",
                 text_view_class=GlyphTextView)
    registry_snapshot = metrics.snapshot()
    metrics.reset()
    stock_off = run_arm(metrics, batching=False,
                        timer_name="bench.immediate_ns")
    metrics.reset()
    stock_on = run_arm(metrics, batching=True, timer_name="bench.batched_ns")

    # The headline claim: on the glyph client, the coalescer cuts
    # device requests >= 5x.
    requests_off = off["wm.ascii.requests"]
    requests_on = max(1, on["wm.ascii.requests"])
    ratio = requests_off / requests_on
    assert requests_off > 1000, off  # the workload is request-heavy
    assert ratio >= 5.0, (off, on)
    # Every request the off arm issued was recorded, not lost.
    assert on["wm.requests_batched"] == requests_off, (off, on)
    assert on["wm.ops_coalesced"] > 0
    assert on["wm.batch_flushes"] > 0
    # Replayed ops = recorded - coalesced away.
    assert on["wm.batch_ops_replayed"] == (
        on["wm.requests_batched"] - on["wm.ops_coalesced"]
    )
    # The off arm records nothing.
    assert off["wm.requests_batched"] == 0 and off["wm.batch_flushes"] == 0

    # The stock workspace: text already arrives as runs, so batching
    # may remove little, but it never adds a request and replay still
    # accounts for every recorded op.
    assert stock_on["wm.ascii.requests"] <= stock_off["wm.ascii.requests"], (
        stock_off, stock_on)
    assert stock_on["wm.requests_batched"] == stock_off["wm.ascii.requests"]
    assert stock_on["wm.batch_ops_replayed"] == (
        stock_on["wm.requests_batched"] - stock_on["wm.ops_coalesced"]
    )

    summary = {
        "workload": {
            "keystrokes": KEYSTROKES,
            "scrolls": SCROLLS,
            "full_exposes": EXPOSES,
        },
        "requests_off": requests_off,
        "requests_on": on["wm.ascii.requests"],
        "request_ratio_off_over_on": round(ratio, 1),
        "draw_text_off": off["wm.ascii.draw_text"],
        "draw_text_on": on["wm.ascii.draw_text"],
        "off": off,
        "on": on,
        "stock_requests_off": stock_off["wm.ascii.requests"],
        "stock_requests_on": stock_on["wm.ascii.requests"],
        "stock_ops_coalesced": stock_on["wm.ops_coalesced"],
    }
    with open("BENCH_batching.json", "w") as fh:
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    report("E16 batched command buffers", [
        f"{KEYSTROKES} keystrokes (expose every 3rd), {SCROLLS} scrolls, "
        f"{EXPOSES} full exposes on the three-pane workspace",
        f"glyph client device requests: off={requests_off} "
        f"on={on['wm.ascii.requests']} ({ratio:.1f}x fewer)",
        f"draw_text requests: off={off['wm.ascii.draw_text']} "
        f"on={on['wm.ascii.draw_text']}",
        f"recorded={on['wm.requests_batched']} "
        f"coalesced={on['wm.ops_coalesced']} "
        f"flushes={on['wm.batch_flushes']}",
        f"flush p50: {on['batch_flush_p50_ns']}ns; frame p50: "
        f"off={off['frame_p50_ns']}ns on={on['frame_p50_ns']}ns",
        f"stock TextView device requests: off={summary['stock_requests_off']} "
        f"on={summary['stock_requests_on']} "
        f"(coalesced={summary['stock_ops_coalesced']})",
        "snapshot written to BENCH_batching.json",
    ])


def test_bench_batched_expose_timing(benchmark, metrics):
    """pytest-benchmark timing of one batched full expose."""
    was = batch.enabled
    batch.configure(True)
    try:
        im, _ = build_workspace()
        im.window.inject_expose()
        im.process_events()
        metrics.reset()

        def one_expose():
            im.window.inject_expose()
            im.process_events()

        benchmark(one_expose)
        assert metrics.counter("wm.batch_flushes") > 0
    finally:
        batch.configure(was)
