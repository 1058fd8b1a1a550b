"""The table view ("spread"): an editable grid on a TableData.

Displays a spreadsheet-style grid — lettered columns, numbered rows —
and edits cells in place.  Cells holding embedded data objects realize
child views by name through the dynamic loader, exactly like the text
view; a cell's row grows to give the embedded view room (the Fig. 5
document embeds text, an equation and an animation inside table cells).

Repaint is region-level and costs the *visible* change, not the
sheet.  One ``"cell"`` change record arrives per assignment, its
``extent`` listing every cell whose value changed; the view first
checks the edited cell for an embedded component arriving or departing
(which forces relayout), then rejects each key whose row lies outside
the visible band ``[top, top + height - HEADER_ROWS)`` in O(1) —
exact, since every row is at least one unit tall and rows above the
top are never drawn.  Only the survivors (at most the visible cells)
build a :meth:`cell_rect` and post damage, tracked in
``_damaged_cells`` and consumed by :meth:`draw`, which restricts its
row/column sweep to the graphic's clip band.  Moving the selection
repaints exactly the two cells involved.  Full relayout
(``_needs_layout``) is reserved for shape changes, column-width drags,
scrolling, and cells whose embedded component arrives or departs — the
cases where geometry actually moves.

The datastream view-type tag for this class is ``spread`` (the paper's
section-5 example places ``\\view{spread, 2}`` on a table), registered
as an alias alongside ``tableview``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ...class_system.dynamic import load_class
from ...class_system.errors import DynamicLoadError
from ...class_system.registry import register_alias
from ...core.view import View
from ...graphics.geometry import Point, Rect
from ...graphics.graphic import Graphic
from ..scrollbar import Scrollable
from .formula import col_name
from .tabledata import Cell, TableData

__all__ = ["TableView"]

DEFAULT_COL_WIDTH = 9
ROW_LABEL_WIDTH = 4
HEADER_ROWS = 2  # column letters + rule


class TableView(View, Scrollable):
    """Editable grid view over a :class:`TableData`."""

    atk_name = "tableview"

    def __init__(self, dataobject: Optional[TableData] = None) -> None:
        super().__init__()
        self.selected: Tuple[int, int] = (0, 0)
        self.editing: Optional[str] = None  # the in-progress cell entry
        self._top_row = 0
        self.col_widths: Dict[int, int] = {}
        self._embed_views: Dict[Tuple[int, int], View] = {}
        self._damaged_cells: Set[Tuple[int, int]] = set()
        self._dragging_col: Optional[int] = None
        self._bind_keys()
        self._build_menus()
        if dataobject is not None:
            self.set_dataobject(dataobject)

    @property
    def data(self) -> Optional[TableData]:
        return self.dataobject

    def on_data_changed(self, change) -> None:
        data = self.data
        if (change.what == "cell" and data is not None
                and not self._needs_layout):
            edited = change.where
            # Only the edited cell's content changed; the other keys
            # changed value through recalc, and an object cell has no
            # references, so it is never downstream of anything.
            if (edited in self._embed_views
                    or data.cell(*edited).kind == "object"):
                # An embedded component arrived or departed: row heights
                # move, so geometry must be rebuilt.
                self._needs_layout = True
                self.want_update()
                return
            top = self._top_row
            bottom = top + self.height - HEADER_ROWS
            bounds = self.local_bounds
            damaged = self._damaged_cells
            for key in change.extent:
                row, col = key
                if not top <= row < bottom or key in damaged:
                    continue  # off the visible band, or already pending
                rect = self.cell_rect(row, col).intersection(bounds)
                if not rect.is_empty():
                    damaged.add(key)
                    self.want_update(rect)
            return
        self._needs_layout = True
        if data is not None:
            rows, cols = data.rows, data.cols
            self.selected = (
                min(self.selected[0], rows - 1),
                min(self.selected[1], cols - 1),
            )
        self.want_update()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def col_width(self, col: int) -> int:
        return self.col_widths.get(col, DEFAULT_COL_WIDTH)

    def set_col_width(self, col: int, width: int) -> None:
        self.col_widths[col] = max(3, width)
        self._needs_layout = True
        self.want_update()

    def _col_x(self, col: int) -> int:
        """X of the left edge of a column's cell area."""
        x = ROW_LABEL_WIDTH
        for c in range(col):
            x += self.col_width(c) + 1  # +1 for the separator bar
        return x

    def row_height(self, row: int) -> int:
        """Rows grow to fit their tallest embedded view."""
        if self.data is None:
            return 1
        height = 1
        # Before this view has been allocated space (height 0), size
        # rows purely by content so desired_size reports honest needs.
        cap = (
            self.height - HEADER_ROWS
            if self.height > HEADER_ROWS else 10 ** 6
        )
        for col in range(self.data.cols):
            cell = self.data.cell(row, col)
            if cell.kind == "object":
                view = self._view_for_cell(row, col, cell)
                _, h = view.desired_size(self.col_width(col),
                                         self.height or 24)
                height = max(height, max(1, min(h, cap)))
        return height

    def _row_y(self, row: int) -> int:
        """Y of a data row at or below ``_top_row``, relative to the view."""
        y = HEADER_ROWS
        for r in range(self._top_row, row):
            y += self.row_height(r)
        return y

    def cell_rect(self, row: int, col: int) -> Rect:
        """A cell's rectangle in view coordinates; empty for a row
        scrolled above the viewport, which is never drawn."""
        if row < self._top_row:
            return Rect.empty()
        return Rect(
            self._col_x(col), self._row_y(row),
            self.col_width(col), self.row_height(row),
        )

    def cell_at(self, point: Point) -> Optional[Tuple[int, int]]:
        """Hit test a view-local point to a (row, col)."""
        if self.data is None or point.y < HEADER_ROWS:
            return None
        y = HEADER_ROWS
        for row in range(self._top_row, self.data.rows):
            height = self.row_height(row)
            if y <= point.y < y + height:
                for col in range(self.data.cols):
                    x = self._col_x(col)
                    if x <= point.x < x + self.col_width(col):
                        return (row, col)
                return None
            y += height
        return None

    # ------------------------------------------------------------------
    # Embedded-cell views
    # ------------------------------------------------------------------

    def _view_for_cell(self, row: int, col: int, cell: Cell) -> View:
        view = self._embed_views.get((row, col))
        if view is None or view.dataobject is not cell.content:
            if view is not None:
                self.remove_child(view)
            try:
                cls = load_class(cell.view_type or "label")
            except DynamicLoadError:
                from ..text.textview import _UnknownComponentView

                cls = _UnknownComponentView
            view = cls(cell.content)
            self._embed_views[(row, col)] = view
            self.add_child(view)
        return view

    def layout(self) -> None:
        if self.data is None:
            return
        live = set()
        for row in range(self.data.rows):
            for col in range(self.data.cols):
                cell = self.data.cell(row, col)
                if cell.kind != "object":
                    continue
                live.add((row, col))
                view = self._view_for_cell(row, col, cell)
                rect = self.cell_rect(row, col).intersection(self.local_bounds)
                view.set_bounds(rect)
        for key, view in list(self._embed_views.items()):
            if key not in live:
                self.remove_child(view)
                del self._embed_views[key]

    # ------------------------------------------------------------------
    # Scrollable (by rows)
    # ------------------------------------------------------------------

    def scroll_total(self) -> int:
        return self.data.rows if self.data is not None else 0

    def scroll_pos(self) -> int:
        return self._top_row

    def scroll_visible(self) -> int:
        visible = 0
        y = HEADER_ROWS
        if self.data is None:
            return 0
        for row in range(self._top_row, self.data.rows):
            y += self.row_height(row)
            if y > self.height:
                break
            visible += 1
        return max(1, visible)

    def apply_scroll_pos(self, pos: int) -> None:
        if self.data is None:
            return
        self._top_row = pos
        if self._embed_views:
            # Embedded cell views are children placed by layout(); a
            # viewport move really does change their bounds.
            self._needs_layout = True

    def scroll_blit_area(self) -> Rect:
        """Only the body scrolls; the column-letter header is fixed."""
        return Rect(0, HEADER_ROWS, self.width,
                    max(0, self.height - HEADER_ROWS))

    def scroll_blit_ok(self) -> bool:
        # Embedded views may be clipped at the bottom edge (they render
        # content the shift could not source); rows are 1 device row
        # only on a cell backend and only without embeds.
        return not self._embed_views and self._scroll_unit_is_device_row()

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------

    def draw(self, graphic: Graphic) -> None:
        if self.data is None:
            return
        data = self.data
        clip = graphic.bounds
        # Culling must account for ink extent, not just the grid pitch:
        # on raster backends glyphs are line_height device rows tall and
        # char_width columns wide, spilling past the 1-unit row/column
        # pitch.  Skipping a string whose anchor is outside the clip but
        # whose ink reaches into it would make a clipped repaint diverge
        # from the full render — the idempotence the damage system
        # relies on.
        ink_h = graphic.line_height()
        ink_w = graphic.string_width("0")
        # Column headers and the full-height separators.  Separators are
        # outside every cell rect, so cell-level damage never needs them;
        # the clip makes skipping them free when it excludes them.
        for col in range(data.cols):
            x = self._col_x(col)
            if x >= self.width or x - 1 >= clip.right:
                break
            if clip.top < ink_h:
                graphic.draw_string_centered(
                    Rect(x, 0, self.col_width(col), 1), col_name(col)
                )
            graphic.draw_vline(x - 1, 0, self.height - 1)
        if clip.top < HEADER_ROWS:
            graphic.draw_hline(0, self.width - 1, 1)
        # Rows: only the band the clip touches pays per-cell work, so a
        # single damaged cell redraws one string, not the whole grid.
        y = HEADER_ROWS
        for row in range(self._top_row, data.rows):
            if y >= self.height or y >= clip.bottom:
                break
            height = self.row_height(row)
            if y + max(height, ink_h) <= clip.top:
                y += height
                continue  # row (and its glyph ink) wholly above the band
            if clip.left < max(ROW_LABEL_WIDTH, 3 * ink_w):
                graphic.draw_string(0, y, f"{row + 1:>3}")
            for col in range(data.cols):
                x = self._col_x(col)
                if x >= self.width or x >= clip.right:
                    break
                width = self.col_width(col)
                if x + max(width, width * ink_w) <= clip.left:
                    continue  # column (and its ink) wholly left of the band
                if (row, col) == self.selected and self.editing is not None:
                    text = self.editing[-width:]
                else:
                    text = data.display_at(row, col)[:width]
                graphic.draw_string(x, y, text)
                if (row, col) == self.selected:
                    graphic.invert_rect(Rect(x, y, width, 1))
            y += height
        self._damaged_cells.clear()  # repainted everything we damaged

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------

    def separator_col_at(self, point: Point) -> Optional[int]:
        """Which column's right-edge separator a header click grabs.

        Grabbing in the header rows within one cell of the rule between
        columns starts a width drag — the same enlarged-grab-zone idea
        as the frame's divider (§3).
        """
        if self.data is None or point.y >= HEADER_ROWS:
            return None
        for col in range(self.data.cols):
            separator_x = self._col_x(col + 1) - 1
            if abs(point.x - separator_x) <= 1:
                return col
        return None

    def handle_mouse(self, event) -> bool:
        from ...wm.events import MouseAction

        if event.action == MouseAction.DOWN:
            grab = self.separator_col_at(event.point)
            if grab is not None:
                self._dragging_col = grab
                return True
            hit = self.cell_at(event.point)
            if hit is not None:
                self._commit_edit()
                old = self.selected
                self.selected = hit
                self._damage_cell(*old)
                self._damage_cell(*hit)
            self.want_input_focus()
            return True
        if event.action == MouseAction.DRAG and self._dragging_col is not None:
            new_width = event.point.x - self._col_x(self._dragging_col)
            self.set_col_width(self._dragging_col, new_width)
            return True
        if event.action == MouseAction.UP:
            self._dragging_col = None
            return True
        return event.action == MouseAction.DRAG

    def _damage_cell(self, row: int, col: int) -> None:
        """Post repaint damage for exactly one cell's rectangle."""
        rect = self.cell_rect(row, col).intersection(self.local_bounds)
        if not rect.is_empty():
            self.want_update(rect)

    def select(self, row: int, col: int) -> None:
        if self.data is None:
            return
        self._commit_edit()
        old = self.selected
        self.selected = (
            max(0, min(row, self.data.rows - 1)),
            max(0, min(col, self.data.cols - 1)),
        )
        scrolled = False
        if self.selected[0] < self._top_row:
            self._top_row = self.selected[0]
            scrolled = True
        while self.selected[0] >= self._top_row + self.scroll_visible():
            self._top_row += 1
            scrolled = True
        if scrolled:
            self._needs_layout = True
            self.want_update()
            return
        # The grid did not move: repaint exactly the two cells whose
        # highlight changed.
        self._damage_cell(*old)
        self._damage_cell(*self.selected)

    def _commit_edit(self) -> None:
        if self.editing is not None and self.data is not None:
            row, col = self.selected
            self.data.set_cell(row, col, self.editing)
            self.editing = None

    def _cancel_edit(self) -> None:
        self.editing = None
        self._damage_cell(*self.selected)

    # -- keymap commands ----------------------------------------------------

    def _cmd_type(self, view, key) -> None:
        self.editing = (self.editing or "") + key.char
        self._damage_cell(*self.selected)

    def _cmd_backspace(self, view, key) -> None:
        if self.editing:
            self.editing = self.editing[:-1]
        elif self.data is not None:
            self.data.clear_cell(*self.selected)
        self._damage_cell(*self.selected)

    def _cmd_commit(self, view, key) -> None:
        self._commit_edit()
        self.select(self.selected[0] + 1, self.selected[1])

    def _cmd_cancel(self, view, key) -> None:
        self._cancel_edit()

    def _move(self, dr: int, dc: int) -> None:
        self.select(self.selected[0] + dr, self.selected[1] + dc)

    def _bind_keys(self) -> None:
        keymap = self.keymap
        keymap.bind_printables(self._cmd_type)
        keymap.bind("Return", self._cmd_commit)
        keymap.bind("Backspace", self._cmd_backspace)
        keymap.bind("Escape", self._cmd_cancel)
        keymap.bind("Up", lambda v, k: self._move(-1, 0))
        keymap.bind("Down", lambda v, k: self._move(1, 0))
        keymap.bind("Left", lambda v, k: self._move(0, -1))
        keymap.bind("Right", lambda v, k: self._move(0, 1))
        keymap.bind("Tab", lambda v, k: self._move(0, 1))

    def _build_menus(self) -> None:
        card = self.menu_card("Table")
        card.add("Insert Row", lambda v, e: self._insert_row())
        card.add("Delete Row", lambda v, e: self._delete_row())
        card.add("Insert Column", lambda v, e: self._insert_col())
        card.add("Delete Column", lambda v, e: self._delete_col())

    def _insert_row(self) -> None:
        if self.data is not None:
            self.data.insert_row(self.selected[0])

    def _delete_row(self) -> None:
        if self.data is not None and self.data.rows > 1:
            self.data.delete_row(self.selected[0])

    def _insert_col(self) -> None:
        if self.data is not None:
            self.data.insert_col(self.selected[1])

    def _delete_col(self) -> None:
        if self.data is not None and self.data.cols > 1:
            self.data.delete_col(self.selected[1])

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        if self.data is None:
            return (width, 3)
        want_w = self._col_x(self.data.cols)
        want_h = HEADER_ROWS + sum(
            self.row_height(r) for r in range(self.data.rows)
        )
        return (min(width, want_w), min(height, want_h))


# The paper's §5 example places a view of type "spread" on a table.
register_alias("spread", TableView)
