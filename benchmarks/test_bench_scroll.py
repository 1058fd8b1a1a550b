"""E19 — scroll cost: shift-blit vs full-area repaint.

Scrolling is the other half of interactive latency (E7 covers
keystrokes).  Without help, every one-line scroll of a reader window
repaints the whole pane even though all but one row of the result is
already on screen, one row higher.  On a drawable with ``copy_area``
the toolkit turns that move into a same-surface shift plus a repaint
of just the exposed strip.

This bench drives a scroll sweep through a 2,000-paragraph document
and a row-by-row storm over a 300-row table, through the full event
path, as a port without ``copy_area`` (control: every scroll repaints
the whole area) and with it (subject), and compares the rows actually
repainted per tick.  It also times full-window exposes,
so the latency budgets in ``check_regression.py`` cover all three
interactive paths: keystroke p50 (E7), scroll p95 and expose p95
(both here).

Outputs ``BENCH_scroll.json`` (telemetry snapshot plus computed
summary) in the working directory; CI uploads it as an artifact and
enforces the budgets.
"""

import json
import time

from conftest import report
from repro.components.table.tabledata import TableData
from repro.components.table.tableview import TableView
from repro.components.text import TextData, TextView
from repro.core import InteractionManager
from repro.wm import AsciiWindowSystem
from repro.wm.ascii_ws import AsciiGraphic

PARAGRAPHS = 2000
TICKS = 120
EXPOSES = 40
TABLE_ROWS = 300
TABLE_TICKS = 100


def build_reader():
    ws = AsciiWindowSystem()
    text = "\n".join(
        f"paragraph {i:04d}: the quick brown fox jumps over the lazy dog"
        for i in range(PARAGRAPHS)
    )
    im = InteractionManager(ws, width=70, height=20)
    view = TextView(TextData(text))
    im.set_child(view)
    im.redraw()
    return im, view


def build_table():
    ws = AsciiWindowSystem()
    data = TableData(TABLE_ROWS, 5)
    for row in range(0, TABLE_ROWS, 7):
        data.set_cell(row, row % 5, row * 3)
    im = InteractionManager(ws, width=60, height=22)
    view = TableView(data)
    im.set_child(view)
    im.redraw()
    return im, view


def scroll_sweep(im, view, registry, timer_name, ticks):
    """A reader session: mostly line-steps, periodic small jumps."""
    pos = 0
    for tick in range(ticks):
        pos += 3 if tick % 6 == 5 else 1
        start = time.perf_counter_ns()
        view.set_scroll_pos(pos)
        im.flush_updates()
        registry.observe_ns(timer_name, time.perf_counter_ns() - start)


def expose_storm(im, registry, timer_name):
    for _ in range(EXPOSES):
        start = time.perf_counter_ns()
        im.window.inject_expose()
        im.process_events()
        registry.observe_ns(timer_name, time.perf_counter_ns() - start)


def run_arm(metrics, blit_on, timer_prefix):
    # The control arm runs as a port whose drawable lacks copy_area.
    AsciiGraphic.can_copy_area = blit_on
    try:
        im, view = build_reader()
        metrics.reset()
        scroll_sweep(im, view, metrics, timer_prefix + ".scroll_ns", TICKS)
        expose_storm(im, metrics, timer_prefix + ".expose_ns")
        out = {
            "rows_repainted": metrics.counter("view.rows_repainted"),
            "scroll_blits": metrics.counter("view.scroll_blits"),
            "scroll_area_saved": metrics.counter("im.scroll_area_saved"),
        }
        scroll_timer = metrics.timer(timer_prefix + ".scroll_ns")
        expose_timer = metrics.timer(timer_prefix + ".expose_ns")
        out["scroll_p50_ns"] = scroll_timer.percentile(0.5) if scroll_timer else 0
        out["scroll_p95_ns"] = scroll_timer.percentile(0.95) if scroll_timer else 0
        out["expose_p95_ns"] = expose_timer.percentile(0.95) if expose_timer else 0
        return out
    finally:
        AsciiGraphic.can_copy_area = True


def run_table_arm(metrics, blit_on):
    AsciiGraphic.can_copy_area = blit_on
    try:
        im, view = build_table()
        metrics.reset()
        for tick in range(TABLE_TICKS):
            view.set_scroll_pos(tick + 1)
            im.flush_updates()
        return {
            "rows_repainted": metrics.counter("view.rows_repainted"),
            "scroll_blits": metrics.counter("view.scroll_blits"),
        }
    finally:
        AsciiGraphic.can_copy_area = True


def test_bench_scroll_blit_vs_repaint(metrics):
    full = run_arm(metrics, blit_on=False, timer_prefix="bench.scroll_off")
    metrics.reset()
    blit = run_arm(metrics, blit_on=True, timer_prefix="bench.scroll_on")
    registry_snapshot = metrics.snapshot()

    table_full = run_table_arm(metrics, blit_on=False)
    metrics.reset()
    table_blit = run_table_arm(metrics, blit_on=True)

    # The headline claim: the shift-blit repaints >= 10x fewer rows per
    # scroll tick.  (A one-line scroll of a 20-row pane repaints 1 row
    # instead of 20.)
    work_ratio = full["rows_repainted"] / max(1, blit["rows_repainted"])
    assert work_ratio >= 10.0, (full, blit)
    assert blit["scroll_blits"] >= TICKS * 0.9  # nearly every tick shifted
    assert full["scroll_blits"] == 0

    table_ratio = (table_full["rows_repainted"]
                   / max(1, table_blit["rows_repainted"]))
    assert table_ratio >= 10.0, (table_full, table_blit)

    summary = {
        "paragraphs": PARAGRAPHS,
        "scroll_ticks": TICKS,
        "work_ratio_full_over_blit": round(work_ratio, 1),
        "table_work_ratio_full_over_blit": round(table_ratio, 1),
        "full": full,
        "blit": blit,
        "table_full": table_full,
        "table_blit": table_blit,
    }
    with open("BENCH_scroll.json", "w") as fh:
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    report("E19 scrolling", [
        f"{PARAGRAPHS}-paragraph document, {TICKS} scroll ticks, "
        f"{EXPOSES} full exposes; {TABLE_ROWS}-row table, "
        f"{TABLE_TICKS} row steps",
        f"rows repainted: full={full['rows_repainted']} "
        f"blit={blit['rows_repainted']} ({work_ratio:.0f}x less)",
        f"table rows repainted: full={table_full['rows_repainted']} "
        f"blit={table_blit['rows_repainted']} ({table_ratio:.0f}x less)",
        f"cells saved by shifting: {blit['scroll_area_saved']}",
        f"scroll p95: full={full['scroll_p95_ns']}ns "
        f"blit={blit['scroll_p95_ns']}ns",
        f"expose p95: {blit['expose_p95_ns']}ns",
        "snapshot written to BENCH_scroll.json",
    ])


def test_bench_scroll_tick_timing(benchmark, metrics):
    """pytest-benchmark timing of one one-line scroll shift-blit."""
    im, view = build_reader()
    im.flush_updates()
    metrics.reset()
    state = {"pos": 0}

    def one_tick():
        state["pos"] += 1
        view.set_scroll_pos(state["pos"])
        im.flush_updates()

    benchmark(one_tick)
    assert metrics.counter("view.scroll_blits") > 0
