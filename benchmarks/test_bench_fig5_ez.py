"""E10 — Figure 5: the compound EZ document.

"an ez window containing a number of embedded objects (text, equations,
and an animation) within a table that is contained inside of text."

Regenerates the document (Pascal's Triangle in four representations),
renders it in EZ, runs the animation from the menu as the caption
instructs, recalculates the spreadsheet, and round-trips the whole
thing through the external representation.
"""

import pytest

from conftest import report
from repro.apps import EZApp
from repro.components import AnimationView, TableView
from repro.core import read_document, scan_extents, write_document
from repro.workloads import build_fig5_document


def build_fig5_ez(ascii_ws):
    ez = EZApp(document=build_fig5_document(), window_system=ascii_ws,
               width=92, height=56)
    table_view = next(
        c for c in ez.textview.children if isinstance(c, TableView)
    )
    table_view.col_widths[0] = 26
    table_view.col_widths[1] = 40
    # The embed's size offer changed: re-negotiate the text layout.
    ez.textview._needs_layout = True
    table_view._needs_layout = True
    ez.im.redraw()
    return ez, table_view


def test_bench_render(benchmark, ascii_ws):
    ez, table_view = build_fig5_ez(ascii_ws)
    benchmark(ez.im.redraw)
    snapshot = ez.snapshot()
    assert "Pascal's Triangle" in snapshot
    assert "This table contains" in snapshot      # inner text component
    assert "v" in snapshot and "i,j" in snapshot  # the equations
    assert "The End" in snapshot
    report("E10 Figure-5 snapshot", snapshot.splitlines())


def test_bench_spreadsheet_recalc(benchmark, ascii_ws):
    ez, table_view = build_fig5_ez(ascii_ws)
    spreadsheet = next(
        cell.content for _r, _c, cell in table_view.data.cells()
        if cell.kind == "object" and cell.content.type_tag == "table"
    )

    def perturb_and_recalc():
        spreadsheet.set_cell(0, 0, 1)  # dirty the dependency graph
        return spreadsheet.value_at(4, 2)

    value = benchmark(perturb_and_recalc)
    assert value == 6.0  # the middle of row five: 1 4 6 4 1
    report("E10 spreadsheet", [
        "Pascal's Triangle recomputed through the formula engine:",
        f"row 5 = {[spreadsheet.value_at(4, c) for c in range(5)]}",
    ])


def test_bench_animation(benchmark, ascii_ws):
    """'Click into the cell and choose the animate item from the menus.'"""
    ez, table_view = build_fig5_ez(ascii_ws)
    anim_view = next(
        c for c in table_view.children if isinstance(c, AnimationView)
    )
    rect = anim_view.rect_in_window()
    ez.im.window.inject_click(rect.left + 1, rect.top + 1)
    ez.process()
    assert ez.im.focus is anim_view
    ez.im.window.inject_menu("Animation", "Animate")
    ez.process()
    assert anim_view.playing

    def one_frame():
        ez.im.tick()
        ez.process()

    benchmark(one_frame)
    # The timed rounds leave the looping animation at an arbitrary
    # frame, so check the advance over a fixed number of frames: k
    # periods of ticks hold exactly k frame steps whatever the phase,
    # and k is not a multiple of the cycle, so a stuck animation fails.
    frames = anim_view.data.frame_count
    assert frames > 1
    k = frames + 1
    before = anim_view.current
    for _ in range(k * anim_view.data.period):
        one_frame()
    assert anim_view.current == (before + k) % frames
    report("E10 animation", [
        f"animation advanced to frame {anim_view.current} of "
        f"{anim_view.data.frame_count} via menu + timer",
    ])


def test_bench_document_roundtrip(benchmark, ascii_ws):
    document = build_fig5_document()
    stream = write_document(document)

    def cycle():
        return write_document(read_document(stream))

    again = benchmark(cycle)
    assert again == stream
    extents = scan_extents(stream)
    report("E10 external representation", [
        f"{len(stream)} bytes, {len(stream.splitlines())} lines, "
        f"{len(extents)} nested objects:",
        *[f"  {e.type_tag:10s} depth={e.depth} "
          f"lines {e.start_line}..{e.end_line}" for e in extents],
    ])
