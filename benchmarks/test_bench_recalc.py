"""E18 — rank-ordered incremental recalc on a 100k-cell sheet.

The production-spreadsheet scenario from the ROADMAP: a 10,000 x 10
sheet of numbers carrying a 2,000-cell running-sum chain (each formula
reads the previous chain cell plus its row's input — the deep-cone
shape) and one 9,000-cell ``SUM`` fan-in aggregate.  The sheet is
materialised once (one full recalculation, every cell evaluated), then
single cells are edited mid-chain.

The claim under test: an edit pays for its dependency *cone*, not the
sheet.  It propagates from the edited cell in topological-rank order,
evaluating a reader only when an input's value changed, with no search
of the cone.  ``table.cells_recomputed`` after one edit must be the
cone size (seed + downstream chain + the aggregate), at least 100x
fewer evaluations than the full pass (which walks every formula in the
same rank order, from ranks derived afresh), with values provably
identical to it (the equivalence fuzzer in
``tests/test_table_incremental.py`` carries the general proof; this
bench asserts it at scale on the chain tail and aggregate).

A ``TableView`` on an ascii 80x24 window is then attached to the same
sheet and the mid-chain edit repeated end to end (edit plus
``process_events``): the table must announce the whole cone in **one**
change record, and the view must pay for the cells it shows — the
cone's 501 rows below the viewport are rejected by row index, and only
the visible ``SUM`` cell is repainted.

Last, one mid-chain formula is re-entered to read a cell ranked level
with it: keeping the graph's topological ranks must raise only the
chain cells below it (``rank_raises_per_edit``), not the sheet.

Outputs ``BENCH_recalc.json``; CI uploads it and gates the ``*_ns``
timings, ``*_ratio`` claims and ``*_per_edit`` counts against the
committed baseline and budgets via ``benchmarks/check_regression.py``.

``ANDREW_RECALC_ROWS`` scales the sheet (default 10000 rows x 10 cols).
"""

import json
import os
import time

from conftest import report
from repro.components.table import TableData, TableView
from repro.core import InteractionManager

ROWS = int(os.environ.get("ANDREW_RECALC_ROWS", "10000"))
COLS = 10
CHAIN = min(2000, ROWS // 5)          # running-sum chain down column B
FANIN = min(9000, ROWS - ROWS // 10)  # =SUM(A1:A<FANIN>) aggregate
EDIT_ROW = CHAIN * 3 // 4             # mid-chain edit: cone = tail + SUM


def build_sheet():
    """Every cell non-empty: numbers everywhere, formulas in col B."""
    table = TableData(ROWS, COLS)
    for row in range(ROWS):
        for col in range(COLS):
            table.set_cell(row, col, float(row + col))
    table.set_cell(0, 1, "=A1")
    for row in range(1, CHAIN):
        # 1-based names: B<row> is the previous chain cell, A<row+1>
        # this row's input — the deep dependency chain.
        table.set_cell(row, 1, f"=B{row}+A{row + 1}")
    table.set_cell(0, 2, f"=SUM(A1:A{FANIN})")  # the wide fan-in
    return table


def chain_tail_expected(table):
    return sum(table.value_at(row, 0) for row in range(CHAIN))


def test_bench_incremental_recalc(metrics, ascii_ws):
    build_start = time.perf_counter_ns()
    table = build_sheet()
    build_ns = time.perf_counter_ns() - build_start
    cells = ROWS * COLS
    formulas = CHAIN + 1
    # The gauge is maintained at assign time, so read it post-build
    # (metrics.reset() clears gauges along with counters).
    deps_edges = metrics.gauge_value("table.deps_edges")

    # The full recalc: the median of 3 passes, each from invalidated
    # values, so the speedup ratio does not hang on one timing.
    full_passes = []
    for trial in range(3):
        table._values_valid = False
        metrics.reset()
        full_start = time.perf_counter_ns()
        assert table.value_at(CHAIN - 1, 1) == chain_tail_expected(table)
        full_passes.append(time.perf_counter_ns() - full_start)
        full_recomputed = metrics.counter("table.cells_recomputed")
        assert metrics.counter("table.recalc_full") == 1
        assert full_recomputed == cells
    full_ns = sorted(full_passes)[1]
    assert deps_edges == 2 * (CHAIN - 1) + 1 + FANIN

    # Single mid-chain edits: each cone is the seed, the chain tail
    # below it, and the SUM aggregate.
    cone = (CHAIN - EDIT_ROW) + 2
    edit_ns = []
    expected_tail = table.value_at(CHAIN - 1, 1)
    expected_sum = table.value_at(0, 2)
    for trial in range(5):
        metrics.reset()
        old = table.value_at(EDIT_ROW, 0)
        start = time.perf_counter_ns()
        table.set_cell(EDIT_ROW, 0, old + 1.0)
        edit_ns.append(time.perf_counter_ns() - start)
        assert metrics.counter("table.recalc_full") == 0
        assert metrics.counter("table.recalc_incremental") == 1
        assert metrics.counter("table.cells_recomputed") == cone
        expected_tail += 1.0
        expected_sum += 1.0
        assert table.value_at(CHAIN - 1, 1) == expected_tail
        assert table.value_at(0, 2) == expected_sum
    edit_p50_ns = sorted(edit_ns)[len(edit_ns) // 2]

    # An edit with no dependents at all: the cone is one cell.
    metrics.reset()
    table.set_cell(ROWS - 1, COLS - 1, 0.0)
    assert metrics.counter("table.cells_recomputed") == 1

    # The acceptance bar: >= 100x fewer evaluations than the full pass.
    recompute_ratio = full_recomputed / cone
    assert recompute_ratio >= 100.0, (full_recomputed, cone)

    # The same edit with a view attached, end to end.
    im = InteractionManager(ascii_ws, title="E18", width=80, height=24)
    view = TableView(table)
    im.set_child(view)
    im.process_events()
    view_ns = []
    notifications = []
    for trial in range(5):
        metrics.reset()
        old = table.value_at(EDIT_ROW, 0)
        start = time.perf_counter_ns()
        table.set_cell(EDIT_ROW, 0, old + 1.0)
        im.process_events()
        view_ns.append(time.perf_counter_ns() - start)
        notifications.append(metrics.counter("notify.notifications"))
        assert metrics.counter("table.cells_recomputed") == cone
        # The first data row (window row 2) shows the changed SUM in C1.
        shown = im.snapshot_lines()[2][view._col_x(2):view._col_x(3) - 1]
        assert shown.strip() == table.display_at(0, 2)[:9]
    view_edit_p50_ns = sorted(view_ns)[len(view_ns) // 2]
    notifications_per_edit = max(notifications)
    assert notifications_per_edit == 1, notifications

    # Formula entry keeps the graph's ranks by raising only what must
    # rise: re-enter the mid-chain formula to read a helper ranked level
    # with it, and the chain cell plus the tail below it rise, not the
    # sheet.  Its value lands equal, so only the seed is evaluated.
    graph = table._graph
    table.set_cell(EDIT_ROW, 3, f"=B{EDIT_ROW}")  # reads the previous link
    metrics.reset()
    before = graph.rank_raises
    table.set_cell(EDIT_ROW, 1, f"=D{EDIT_ROW + 1}+A{EDIT_ROW + 1}")
    rank_raises = graph.rank_raises - before
    assert rank_raises == CHAIN - EDIT_ROW, rank_raises
    assert metrics.counter("table.cells_recomputed") == 1
    assert table.value_at(CHAIN - 1, 1) == chain_tail_expected(table)

    summary = {
        "cells": cells,
        "formulas": formulas,
        "chain_len": CHAIN,
        "fanin": FANIN,
        "deps_edges": int(deps_edges),
        "build_ns": build_ns,
        "full_recalc_ns": full_ns,
        "edit_recalc_p50_ns": edit_p50_ns,
        "cells_recomputed_full": full_recomputed,
        "cells_recomputed_edit": cone,
        "recompute_ratio": round(recompute_ratio, 1),
        "speedup_ratio": round(full_ns / max(1, edit_p50_ns), 1),
        "view_edit_p50_ns": view_edit_p50_ns,
        "notifications_per_edit": notifications_per_edit,
        "rank_raises_per_edit": rank_raises,
    }
    registry_snapshot = metrics.snapshot()
    with open("BENCH_recalc.json", "w") as fh:
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    report("E18 incremental recalc (100k-cell sheet)", [
        f"{cells} cells, {formulas} formulas "
        f"(chain {CHAIN}, fan-in {FANIN}), {int(deps_edges)} graph edges",
        f"full recalc: {cells} evaluations in {full_ns / 1e6:.1f}ms",
        f"one edit: {cone} evaluations in {edit_p50_ns / 1e6:.2f}ms (p50)",
        f"recompute reduction: {recompute_ratio:.0f}x fewer evaluations, "
        f"{full_ns / max(1, edit_p50_ns):.0f}x faster",
        f"one edit + repaint with an 80x24 view attached: "
        f"{view_edit_p50_ns / 1e6:.2f}ms (p50), "
        f"{notifications_per_edit} change record",
        f"formula re-entry: {rank_raises} rank raises of {formulas} "
        "formulas",
        "snapshot written to BENCH_recalc.json",
    ])


def test_bench_single_edit(benchmark):
    """pytest-benchmark timing of one mid-chain edit + its propagation."""
    table = TableData(1000, 4)
    for row in range(1000):
        table.set_cell(row, 0, float(row))
    table.set_cell(0, 1, "=A1")
    for row in range(1, 500):
        table.set_cell(row, 1, f"=B{row}+A{row + 1}")
    table.value_at(499, 1)  # materialise

    state = {"value": 0.0}

    def edit():
        state["value"] += 1.0
        table.set_cell(250, 0, state["value"])
        return table.value_at(499, 1)

    benchmark(edit)
