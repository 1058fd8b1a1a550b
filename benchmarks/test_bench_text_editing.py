"""E7 — per-keystroke editing cost on a large document.

The paper's editor ("a WYSIWYG multi-font text editor is one of the
toolkit's standard components") must stay responsive on real
documents.  This bench types, deletes and restyles inside a
2,000-paragraph buffer through the full event path (edit -> change
records -> delayed update -> clipped repaint) and compares the
incremental paragraph-cache relayout against a control view that
re-wraps from scratch on every layout.  Both arms type on the bottom
row, where the caret lands when it is placed; a third arm types on the
incremental view with the caret scrolled to mid-view, where an edit
that repainted every row below it would show.  Each arm reports the
cells it repainted per keystroke.

Outputs ``BENCH_text_editing.json`` (a telemetry-registry snapshot
plus the computed summary) in the working directory; CI uploads it as
an artifact.
"""

import json
import time

from conftest import report
from repro.components.text import TextData, TextView
from repro.core import InteractionManager
from repro.wm import AsciiWindowSystem

PARAGRAPHS = 2000
KEYSTROKES = 60

_WORK_COUNTERS = (
    "text.layout_full",
    "text.layout_incremental",
    "text.lines_wrapped",
    "text.lines_reused",
    "font.metrics_hits",
    "font.metrics_misses",
)


def build_editor(incremental):
    ws = AsciiWindowSystem()
    text = "\n".join(
        f"paragraph {i:04d}: the quick brown fox jumps over the lazy dog"
        for i in range(PARAGRAPHS)
    )
    data = TextData(text)
    im = InteractionManager(ws, width=70, height=20)
    view = TextView(data)
    if not incremental:
        view.incremental_enabled = False  # the control arm
    im.set_child(view)
    im.redraw()
    return im, view, data


def keystroke_session(im, view, data, registry, timer_name, mid_view):
    """A mid-document editing burst: type, backspace, restyle.

    Returns the cells the keystrokes repainted (placing the caret and
    scrolling it to mid-view are flushed first, and not counted)."""
    view.set_dot(data.length // 2)
    if mid_view:
        view.set_scroll_pos(view.scroll_pos() + view.scroll_visible() // 2)
    im.flush_updates()
    placed = registry.counter("im.repaint_area")
    for i in range(KEYSTROKES):
        start = time.perf_counter_ns()
        if i % 10 == 8:
            view.delete_selection_or(view.dot - 1, 1)  # backspace
        elif i % 10 == 9:
            data.add_style(view.dot - 8, view.dot - 2, "bold")
        else:
            view.insert_text("x")
        im.flush_updates()
        registry.observe_ns(timer_name, time.perf_counter_ns() - start)
    return registry.counter("im.repaint_area") - placed


def run_arm(metrics, incremental, timer_name, mid_view=False):
    im, view, data = build_editor(incremental)
    metrics.reset()
    repainted = keystroke_session(im, view, data, metrics, timer_name,
                                  mid_view)
    counters = {name: metrics.counter(name) for name in _WORK_COUNTERS}
    timer = metrics.timer(timer_name)
    counters["keystroke_p50_ns"] = timer.percentile(0.5) if timer else 0
    # Every device op the ascii backend executed (text runs, fills,
    # copies): ~7 with run-level text drawing, ~68 drawing per glyph.
    counters["device_requests_per_keystroke"] = round(
        metrics.counter("wm.ascii.requests") / KEYSTROKES, 1
    )
    # The damage the edits posted: one 70-cell row per same-height edit.
    counters["cells_repainted_per_keystroke"] = round(
        repainted / KEYSTROKES, 1
    )
    return counters


def test_bench_incremental_vs_full_relayout(metrics):
    full = run_arm(metrics, incremental=False, timer_name="bench.full_ns")
    metrics.reset()
    incremental = run_arm(metrics, incremental=True,
                          timer_name="bench.incremental_ns")
    registry_snapshot = metrics.snapshot()
    metrics.reset()
    mid_view = run_arm(metrics, incremental=True,
                       timer_name="bench.mid_view_ns", mid_view=True)

    # The headline claim: per-keystroke wrap work drops at least 5x.
    # (In practice the control arm re-wraps ~2,000 lines per keystroke
    # while the paragraph cache re-wraps ~1.)
    wrapped_full = full["text.lines_wrapped"]
    wrapped_incremental = max(1, incremental["text.lines_wrapped"])
    work_ratio = wrapped_full / wrapped_incremental
    assert work_ratio >= 5.0, (full, incremental)
    assert incremental["text.layout_full"] == 0
    assert incremental["text.lines_reused"] > KEYSTROKES * (PARAGRAPHS - 10)
    # Metrics caching: after warm-up, font lookups are all hits.
    assert (incremental["font.metrics_hits"]
            > 100 * max(1, incremental["font.metrics_misses"]))
    # Wall clock must follow the work reduction (enormous margin).
    assert incremental["keystroke_p50_ns"] < full["keystroke_p50_ns"]
    # An edit repaints the rows it changed, wherever the caret sits:
    # about one 70-cell row per keystroke (two when the line wraps), not
    # every row below the caret.
    assert mid_view["cells_repainted_per_keystroke"] < 2 * 70

    summary = {
        "paragraphs": PARAGRAPHS,
        "keystrokes": KEYSTROKES,
        "work_ratio_full_over_incremental": round(work_ratio, 1),
        "full": full,
        "incremental": incremental,
        "mid_view": mid_view,
    }
    with open("BENCH_text_editing.json", "w") as fh:
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    speedup = (full["keystroke_p50_ns"]
               / max(1, incremental["keystroke_p50_ns"]))
    report("E7 text editing", [
        f"{PARAGRAPHS}-paragraph document, {KEYSTROKES} keystrokes "
        "at mid-document",
        f"lines wrapped per session: full={wrapped_full} "
        f"incremental={incremental['text.lines_wrapped']} "
        f"({work_ratio:.0f}x less wrap work)",
        f"lines reused: {incremental['text.lines_reused']}",
        f"keystroke p50: full={full['keystroke_p50_ns']}ns "
        f"incremental={incremental['keystroke_p50_ns']}ns "
        f"({speedup:.1f}x)",
        "cells repainted per keystroke: "
        f"full={full['cells_repainted_per_keystroke']} "
        f"incremental={incremental['cells_repainted_per_keystroke']} "
        f"caret mid-view={mid_view['cells_repainted_per_keystroke']}",
        "snapshot written to BENCH_text_editing.json",
    ])


def test_bench_keystroke_timing(benchmark, metrics):
    """pytest-benchmark timing of one keystroke on the incremental arm."""
    im, view, data = build_editor(incremental=True)
    view.set_dot(data.length // 2)
    im.flush_updates()
    metrics.reset()

    def one_keystroke():
        view.insert_text("x")
        im.flush_updates()

    benchmark(one_keystroke)
    assert metrics.counter("text.layout_full") == 0
