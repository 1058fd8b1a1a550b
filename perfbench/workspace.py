"""Documents, the three-pane workspace, and from-scratch reference renders.

Every workload reads its documents from datastreams (the §5 external
representation) at set-up, so the datastream written here is the only
thing the program sees of the generator.  The correctness gates
compare a live, incrementally maintained surface against a surface
rendered from scratch: the document is written out, read back into a
fresh view tree on a fresh window system, and painted once with
``redraw``.
"""

from __future__ import annotations

from typing import List

from repro.components.drawing.drawdata import DrawingData
from repro.components.drawing.drawview import DrawView
from repro.components.drawing.shapes import EllipseShape, LineShape, RectShape
from repro.components.split import SplitView
from repro.components.table.tabledata import TableData
from repro.components.table.tableview import TableView
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.core import InteractionManager
from repro.core import datastream
from repro.graphics import Rect
from repro.wm import AsciiWindowSystem

WIDTH, HEIGHT = 80, 24
#: The E7 document: 2,000 one-line paragraphs.
PARAGRAPHS = 2000
#: Rows of the chained-formula sheet: B is a running sum of A and C
#: doubles B, so editing A<r> recomputes 2 * (SHEET_ROWS - r) + 1 cells.
SHEET_ROWS = 240


def e7_text() -> TextData:
    return TextData("\n".join(
        f"paragraph {i:04d}: the quick brown fox jumps over the lazy dog"
        for i in range(PARAGRAPHS)
    ))


def chained_sheet() -> TableData:
    table = TableData(SHEET_ROWS, 3)
    for row in range(SHEET_ROWS):
        table.set_cell(row, 0, row % 17 + 1)
        table.set_cell(row, 1, f"=B{row}+A{row + 1}" if row else "=A1")
        table.set_cell(row, 2, f"=B{row + 1}*2")
    return table


def drawing() -> DrawingData:
    data = DrawingData(38, 11)
    data.add_shape(RectShape(Rect(1, 1, 12, 5)))
    data.add_shape(EllipseShape(Rect(16, 2, 10, 4)))
    data.add_shape(LineShape(2, 8, 20, 9))
    data.add_shape(RectShape(Rect(27, 5, 8, 4)))
    return data


def small_note(index: int) -> TextData:
    """A fleet session's document: 32 short lines, more than its 80x24
    window shows, so the window is full from the start and the cost of
    a repaint does not drift with how much text the seed's keys add."""
    return TextData("\n".join(
        f"note {index:04d} line {line:02d}: the toolkit provides a framework"
        for line in range(32)
    ))


def to_stream(data) -> str:
    return datastream.write_document(data)


def read(source: str):
    """Read one document (looked up at call time, so a wrapper installed
    on ``datastream.read_document`` sees every set-up read)."""
    return datastream.read_document(source)


def build_workspace(window_system, text: TextData, table: TableData,
                    draw: DrawingData) -> dict:
    """The three-pane 80x24 workspace: text | (table / drawing).

    Every pane opts into a backing store, so flipping the compositor
    default shows up as memory and repaint work without editing the
    benchmark.  Returns the panes; the first frame is painted.
    """
    im = InteractionManager(window_system, width=WIDTH, height=HEIGHT)
    text_view = TextView(text)
    table_view = TableView(table)
    draw_view = DrawView(draw)
    im.set_child(SplitView(text_view,
                           SplitView(table_view, draw_view, vertical=False),
                           vertical=True))
    for pane in (text_view, table_view, draw_view):
        pane.set_backing_store(True)
    im.set_focus(text_view)
    im.process_events()
    return {"im": im, "text": text_view, "table": table_view,
            "draw": draw_view}


def build_editor(window_system, text: TextData, dot: int = 0) -> dict:
    """A single-pane 80x24 editor (one fleet session's view tree) with
    the caret at ``dot``; the first frame is painted."""
    im = InteractionManager(window_system, width=WIDTH, height=HEIGHT)
    view = TextView(text)
    view.set_backing_store(True)
    im.set_child(view)
    im.set_focus(view)
    view.set_dot(dot)
    im.process_events()
    return {"im": im, "text": view}


def cells(surface) -> tuple:
    """Every cell of a cell surface: characters, inverse and bold."""
    return (list(surface._chars), bytes(surface._inverse),
            bytes(surface._bold))


def diff_surfaces(label: str, live, reference, limit: int = 3) -> List[str]:
    """Describe up to ``limit`` differing cells of two cell surfaces."""
    if (live.width, live.height) != (reference.width, reference.height):
        return [f"{label}: size {live.width}x{live.height} != "
                f"{reference.width}x{reference.height}"]
    a, b = cells(live), cells(reference)
    if a == b:
        return []
    out = []
    for index in range(live.width * live.height):
        got = (a[0][index], a[1][index], a[2][index])
        want = (b[0][index], b[1][index], b[2][index])
        if got != want:
            y, x = divmod(index, live.width)
            out.append(f"{label}: cell ({x},{y}) {got!r} != {want!r}")
            if len(out) >= limit:
                break
    return out


def reference_workspace(live: dict) -> dict:
    """The live workspace's documents rendered from scratch."""
    text = datastream.read_document(to_stream(live["text"].data))
    table = datastream.read_document(to_stream(live["table"].data))
    draw = datastream.read_document(to_stream(live["draw"].data))
    ref = build_workspace(AsciiWindowSystem(), text, table, draw)
    ref["text"].set_dot(live["text"].dot)
    ref["text"].set_scroll_pos(live["text"].scroll_pos())
    ref["table"].set_scroll_pos(live["table"].scroll_pos())
    ref["im"].redraw()
    return ref


def reference_editor(live: dict) -> dict:
    text = datastream.read_document(to_stream(live["text"].data))
    ref = build_editor(AsciiWindowSystem(), text, live["text"].dot)
    ref["text"].set_scroll_pos(live["text"].scroll_pos())
    ref["im"].redraw()
    return ref


def surface_of(im: InteractionManager):
    im.window.flush()
    return im.window.surface


def check_table_values(table: TableData, label: str = "table",
                       limit: int = 3) -> List[str]:
    """Incrementally recalculated values against a fresh read-back."""
    fresh = datastream.read_document(to_stream(table))
    out = []
    for row in range(table.rows):
        for col in range(table.cols):
            got, want = table.value_at(row, col), fresh.value_at(row, col)
            if got != want:
                out.append(f"{label}: value ({row},{col}) {got!r} != {want!r}")
                if len(out) >= limit:
                    return out
    return out
