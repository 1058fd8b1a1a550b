"""The text view: a display-based (WYSLRN) editor on a TextData.

"Currently the text view is a display-based text processing system ...
It displays text with multiple fonts, indentations, etc. but makes no
attempt to display the information as it would appear on a piece of
paper."  (The paper-based companion is
:mod:`repro.components.text.wysiwyg`, which views the *same* data
object — the section-2 two-views example.)

Responsibilities:

* wrap the buffer to the view width, honouring per-style fonts and
  paragraph indentation/centering;
* realize each embedded object as a child view, created **by name
  through the dynamic loader** — the text view has no compiled-in
  knowledge of any embedded component's type;
* edit the data object through its mutators only, letting change
  notifications drive repaints (the delayed-update discipline), so any
  number of other views on the same buffer stay correct;
* expose the :class:`~repro.components.scrollbar.Scrollable` protocol
  so a scroll bar can adjust it (Figure 1's arrangement).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from ... import obs
from ...class_system.dynamic import load_class
from ...class_system.errors import DynamicLoadError
from ...class_system.observable import ChangeRecord
from ...core.view import View
from ...graphics.fontdesc import FontDesc, FontMetrics
from ...graphics.geometry import Point, Rect
from ...graphics.graphic import Graphic
from ..scrollbar import Scrollable
from .marks import LEFT, Mark, RIGHT
from .styles import Style
from .textdata import EmbeddedObject, OBJECT_CHAR, TextData

__all__ = ["TextView"]

# One shared kill buffer, like the original's cut buffer.
_clipboard: List[str] = [""]

#: What the wrap loop places in one step: a stretch of glyphs of one
#: advance (no newline, tab or embed), or a single tab.
_STRETCH = re.compile("[^\n\t%s]+|\t" % OBJECT_CHAR)


def _advance(text: str, runs: List[tuple], x: int, offset: int) -> int:
    """``x`` moved across ``text[:offset]`` (a tab is four cells wide),
    given the line's ``(lo, hi, font, char_width)`` runs."""
    for lo, hi, _font, width in runs:
        if lo >= offset:
            break
        hi = min(hi, offset)
        x += width * (hi - lo + 3 * text.count("\t", lo, hi))
    return x


class _TextLine:
    """One wrapped display line of character cells.

    The characters on one display line always occupy consecutive buffer
    positions, so the line stores a plain string; its first position
    lives in the view's :class:`_ShiftedInts` start index, where edits
    move it without touching the line (incremental relayout).
    """

    __slots__ = ("text", "indent", "centered", "height")

    def __init__(self, text: str, indent: int, centered: bool,
                 height: int) -> None:
        self.text = text
        self.indent = indent
        self.centered = centered
        self.height = height


class _EmbedLine:
    """A display block occupied by an embedded component's view."""

    __slots__ = ("embed", "indent", "width", "height")

    #: The one buffer position the block occupies, so ``len(line.text)``
    #: is every line's extent.
    text = OBJECT_CHAR

    def __init__(self, embed: EmbeddedObject, indent: int,
                 width: int, height: int) -> None:
        self.embed = embed
        self.indent = indent
        self.width = width
        self.height = height


class _ShiftedInts:
    """A non-decreasing int list with one deferred suffix shift.

    Entries from index ``at`` onward read ``values[i] + delta``.  Moving
    everything after some point (an edit shifting the buffer positions
    of later lines, a re-wrap changing the height of everything below)
    first *moves* the shift point there — settling only the entries
    between the old and the new point, as a gap buffer moves its gap —
    then adds to ``delta``.  A run of edits in one place therefore costs
    O(1) each, not O(len).  Binary searches split at ``at``.
    """

    __slots__ = ("values", "at", "delta")

    def __init__(self, values: List[int]) -> None:
        self.values = values
        self.at = len(values)
        self.delta = 0

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += len(self.values)
        value = self.values[index]
        return value + self.delta if index >= self.at else value

    def move(self, to: int) -> None:
        """Settle entries so the pending shift starts at index ``to``."""
        at, delta, values = self.at, self.delta, self.values
        if delta and to != at:
            if to > at:
                values[at:to] = [v + delta for v in values[at:to]]
            else:
                values[to:at] = [v - delta for v in values[to:at]]
            if obs.metrics_on:
                obs.registry.inc("text.lines_settled", abs(to - at))
        self.at = to

    def shift_from(self, index: int, delta: int) -> None:
        """Add ``delta`` to every entry from ``index`` on."""
        self.move(index)
        self.delta += delta

    def splice(self, i: int, j: int, new: List[int]) -> None:
        """Replace entries ``[i, j)`` with the settled values ``new``."""
        self.move(j)
        self.values[i:j] = new
        self.at = i + len(new)

    def bisect_left(self, x: int, lo: int = 0) -> int:
        values, at = self.values, self.at
        if lo < at:
            index = bisect_left(values, x, lo, at)
            if index < at:
                return index
            lo = at
        return bisect_left(values, x - self.delta, lo)

    def bisect_right(self, x: int, lo: int = 0) -> int:
        values, at = self.values, self.at
        if lo < at:
            index = bisect_right(values, x, lo, at)
            if index < at:
                return index
            lo = at
        return bisect_right(values, x - self.delta, lo)


class TextView(View, Scrollable):
    """Interactive multi-font text editor view."""

    atk_name = "textview"

    base_font = FontDesc("andy", 12)

    #: Class-level escape hatch: False forces every layout to re-wrap
    #: from scratch (benchmarks use it as the control arm).
    incremental_enabled = True

    def __init__(self, dataobject: Optional[TextData] = None,
                 read_only: bool = False) -> None:
        View.__init__(self)
        self.read_only = read_only
        self._dot: Optional[Mark] = None       # the caret
        self._anchor: Optional[Mark] = None    # selection anchor (or None)
        self._region_start: Optional[Mark] = None
        self._region_end: Optional[Mark] = None
        self._top = 0                          # first visible display line
        self._lines: List[object] = []
        self._embed_views: Dict[int, View] = {}
        # Incremental-relayout state: the dirty span is kept in current
        # buffer coordinates (each edit both widens it and shifts the
        # cached lines' starts); a full layout is forced when the cache
        # cannot be trusted (width change, region change, embed
        # mutations, no prior lines).
        self._dirty_lo: Optional[int] = None
        self._dirty_hi: Optional[int] = None
        self._full_layout = True
        # Parallel to _lines: the buffer position each line starts at,
        # and p[i] = total height of the lines before index i.  Both are
        # spliced by incremental layout and shifted lazily.
        self._starts = _ShiftedInts([])
        self._prefix = _ShiftedInts([0])
        self._embed_lines: List[_EmbedLine] = []
        # What the last layout's splice did: (index one past the new
        # lines, height change), or None after a full or no-op layout.
        self._spliced: Optional[Tuple[int, int]] = None
        self._bind_keys()
        self._build_menus()
        if dataobject is not None:
            self.set_dataobject(dataobject)

    # ------------------------------------------------------------------
    # Data linkage
    # ------------------------------------------------------------------

    def set_dataobject(self, dataobject) -> None:
        if self.dataobject is not None:
            if self._dot is not None:
                self.dataobject.marks.release(self._dot)
                self._dot = None
            self._clear_selection()
            self.clear_region()
        super().set_dataobject(dataobject)
        if dataobject is not None:
            self._dot = dataobject.marks.create(0, RIGHT)
        self._region_start = None
        self._region_end = None
        self._full_layout = True
        self._needs_layout = True

    def set_region(self, start: int, end: int) -> None:
        """Restrict this view to the buffer section ``[start, end)``.

        The section-2 PageMaker scenario: several views examining
        *different sections of the same data object*.  The bounds are
        marks, so they follow edits; the caret is clamped inside.
        """
        if self.data is None:
            raise ValueError("set_region requires a data object")
        self.clear_region()
        self._region_start = self.data.marks.create(start, LEFT)
        self._region_end = self.data.marks.create(end, RIGHT)
        self.set_dot(max(start, min(self.dot, end)))
        self._full_layout = True
        self._needs_layout = True
        self.want_update()

    def clear_region(self) -> None:
        """Show the whole buffer again."""
        if self.data is not None:
            if self._region_start is not None:
                self.data.marks.release(self._region_start)
            if self._region_end is not None:
                self.data.marks.release(self._region_end)
        self._region_start = self._region_end = None
        self._full_layout = True
        self._needs_layout = True

    def region(self) -> Tuple[int, int]:
        """The visible section ``(start, end)`` (whole buffer if unset)."""
        if self.data is None:
            return (0, 0)
        if self._region_start is None or self._region_end is None:
            return (0, self.data.length)
        start = max(0, min(self._region_start.pos, self.data.length))
        end = max(start, min(self._region_end.pos, self.data.length))
        return (start, end)

    @property
    def data(self) -> Optional[TextData]:
        return self.dataobject

    @property
    def dot(self) -> int:
        """The caret position."""
        return self._dot.pos if self._dot is not None else 0

    def set_dot(self, pos: int, extend: bool = False) -> None:
        """Move the caret; ``extend`` grows the selection instead.

        A plain caret move damages only the old and the new caret line.
        A move that scrolls shifts the window's rows (:meth:`_scrolled_from`)
        and damages the exposed strip plus both caret lines; a selection
        change repaints the whole view.
        """
        if self.data is None or self._dot is None:
            return
        lo, hi = self.region()
        pos = max(lo, min(pos, hi))
        selection = self.selection()
        old_caret = self._caret_row() if selection is None else None
        top = self._top
        if extend:
            if self._anchor is None:
                self._anchor = self.data.marks.create(self._dot.pos)
        else:
            self._clear_selection()
        self._dot.pos = pos
        self._scroll_dot_visible()
        if selection is not None or self.selection() is not None:
            self.want_update()
            return
        new_caret = self._caret_row()
        if self._top != top:
            # Posted before the shift, the old caret row moves with it.
            if old_caret is not None:
                self.want_update(old_caret)
            self._scrolled_from(top)
        elif old_caret is not None and old_caret != new_caret:
            self.want_update(old_caret)
        if new_caret is not None:
            self.want_update(new_caret)

    def selection(self) -> Optional[Tuple[int, int]]:
        """The selected range (start, end), or None."""
        if self._anchor is None or self._dot is None:
            return None
        a, b = self._anchor.pos, self._dot.pos
        if a == b:
            return None
        return (min(a, b), max(a, b))

    def selected_text(self) -> str:
        span = self.selection()
        if span is None or self.data is None:
            return ""
        return self.data.text(span[0], span[1])

    def _clear_selection(self) -> None:
        if self._anchor is not None and self.data is not None:
            self.data.marks.release(self._anchor)
        self._anchor = None

    def set_bounds(self, bounds: Rect) -> None:
        if bounds.width != self.bounds.width:
            self._full_layout = True
        super().set_bounds(bounds)

    def on_data_changed(self, change: ChangeRecord) -> None:
        """Repair incrementally: "the view must determine what the
        change is and update its visual representation appropriately"
        (§2).  A change inside the window is laid out at once and its
        damage read from the splice (:meth:`_edit_damage`); a change
        above the window damages everything, one below it nothing."""
        damage_top = self._damage_row_for(change)
        self._record_change(change)
        self._needs_layout = True
        if damage_top is None:
            self.want_update()
        elif damage_top < self.height:
            self.want_update(self._edit_damage(damage_top))

    def _edit_damage(self, damage_top: int) -> Rect:
        """Lay out the change just recorded and return the rows to
        repaint, from ``damage_top`` (the first row it can touch).

        Lines before the changed row are unchanged, so when the splice
        kept the height, only its rows down to its end changed.  When
        the height changed, the rows below the splice's old end are
        shifted to its new end (the terminal's insert/delete-line, on
        the scroll path) and the splice's rows repainted.  Anything the
        splice cannot bound -- a full layout, embedded blocks, a moved
        ``_top``, a refused shift -- repaints to the bottom of the view.
        A view outside a window posts nowhere, so it lays out lazily.
        """
        bottom = Rect(0, damage_top, self.width, self.height - damage_top)
        if self.interaction_manager() is None:
            return bottom
        top = self._top
        self.ensure_layout()
        if (self._spliced is None or self._top != top
                or not self.scroll_blit_ok()):
            return bottom
        end, delta = self._spliced
        prefix = self._prefix
        new_end = prefix[end] - prefix[top]
        if new_end <= damage_top:
            return bottom
        area_top = min(new_end, new_end - delta)
        if delta and area_top < self.height and not self.want_scroll(
            Rect(0, area_top, self.width, self.height - area_top), delta
        ):
            return bottom
        return Rect(0, damage_top, self.width,
                    min(new_end, self.height) - damage_top)

    # -- incremental-relayout bookkeeping -----------------------------------

    def _record_change(self, change: ChangeRecord) -> None:
        """Fold one change record into the dirty span (current coords).

        Inserts and deletes also shift the cached start of every later
        line so the cache stays addressed in current buffer coordinates
        -- lazily, through the start index's deferred shift; embed
        mutations and anything unclassifiable force the one-shot
        full-layout fallback.
        """
        if self._full_layout:
            return
        what, where, extent = change.what, change.where, change.extent
        if what not in ("insert", "delete", "style") or not isinstance(
            where, int
        ) or not isinstance(extent, int):
            self._full_layout = True
            return
        if not self._lines:
            self._full_layout = True
            return
        starts = self._starts
        if what == "insert":
            self._shift_dirty_insert(where, extent)
            self._extend_dirty(where, where + extent)
            # A line starting exactly at ``where`` keeps its start: the
            # new text opens it (and it is re-wrapped with the span).
            starts.shift_from(starts.bisect_right(where), extent)
        elif what == "delete":
            self._shift_dirty_delete(where, extent)
            # The join point.  A cached line starting exactly there may
            # have lost leading characters; the re-wrap never reuses it,
            # since it stops just past a newline at or after the point.
            self._extend_dirty(where, where)
            inside = starts.bisect_right(where)
            after = starts.bisect_left(where + extent, inside)
            starts.shift_from(after, -extent)
            # Lines starting inside the cut (settled now, being before
            # the shift point) collapse onto the join point; they are
            # dirty anyway.
            starts.values[inside:after] = [where] * (after - inside)
        else:  # style: no positions move
            self._extend_dirty(where, where + extent)

    def _extend_dirty(self, lo: int, hi: int) -> None:
        if self._dirty_lo is None:
            self._dirty_lo, self._dirty_hi = lo, hi
        else:
            self._dirty_lo = min(self._dirty_lo, lo)
            self._dirty_hi = max(self._dirty_hi, hi)

    def _shift_dirty_insert(self, where: int, extent: int) -> None:
        if self._dirty_lo is not None and self._dirty_lo >= where:
            self._dirty_lo += extent
        if self._dirty_hi is not None and self._dirty_hi >= where:
            self._dirty_hi += extent

    def _shift_dirty_delete(self, where: int, extent: int) -> None:
        def map_pos(pos: int) -> int:
            if pos < where:
                return pos
            if pos >= where + extent:
                return pos - extent
            return where
        if self._dirty_lo is not None:
            self._dirty_lo = map_pos(self._dirty_lo)
        if self._dirty_hi is not None:
            self._dirty_hi = map_pos(self._dirty_hi)

    def _reset_dirty(self) -> None:
        self._dirty_lo = self._dirty_hi = None
        self._full_layout = False

    def _damage_row_for(self, change: ChangeRecord) -> Optional[int]:
        """First view row ``change`` can touch, or None for 'all'.

        Wrapping is per paragraph and top-down, so a display line
        ending before ``where`` keeps its text and height; the first
        line that can change is the one ending at or after ``where``
        (:meth:`_first_line_to`).  (A line ending exactly there can
        only gain glyphs no taller than its own, so the lines above the
        window keep their heights.)  A change above the window moves
        every row; one below it touches none (the view's height).
        """
        if change.what not in ("insert", "delete", "style") or not isinstance(
            change.where, int
        ):
            return None
        top = self._top
        if not self._lines or top >= len(self._lines):
            return None
        if change.where < self._starts[top]:
            return None
        prefix = self._prefix
        index = self._first_line_to(change.where, top)
        return min(prefix[index] - prefix[top], self.height)

    def _first_line_to(self, pos: int, lo: int = 0) -> int:
        """The first display line from index ``lo`` ending at or after
        ``pos`` (the last line if none does); ``pos`` must not lie
        before line ``lo``'s start.

        A bisection finds the last line starting at or before ``pos``;
        the lines before it end before ``pos`` unless they end exactly
        there (a soft break at ``pos``, or an embedded block whose
        trailing empty line shares its start), so it backs up over
        those.  ``<=``: a line ending exactly at ``pos`` may change too
        (an edit at the next line's start can pull glyphs back onto
        it); starting one line early is always safe.
        """
        index = max(lo, self._starts.bisect_right(pos, lo) - 1)
        while index > lo and self._line_end(index - 1) >= pos:
            index -= 1
        return index

    # ------------------------------------------------------------------
    # Metrics & layout
    # ------------------------------------------------------------------

    def _metrics(self, font: FontDesc) -> FontMetrics:
        im = self.interaction_manager()
        if im is not None:
            return im.window_system.font_metrics(font)
        return FontMetrics(font, 1, 1, 0)

    def font_for_styles(self, styles: List[Style]) -> FontDesc:
        font = self.base_font
        size = font.size
        flags = set(font.styles)
        for style in styles:
            size += style.size_delta
            if style.bold:
                flags.add("bold")
            if style.italic:
                flags.add("italic")
            if style.fixed:
                flags.add("fixed")
        return FontDesc(font.family, max(4, size), flags)

    def _paragraph_props(self, pos: int) -> Tuple[int, bool]:
        """(indent, centered) from the styles covering ``pos``."""
        indent = 0
        centered = False
        if self.data is not None:
            for style in self.data.styles_at(pos):
                indent += style.indent
                centered = centered or style.centered
        return (indent, centered)

    def layout(self) -> None:
        """Rebuild or incrementally repair the wrapped display-line list.

        Edit-to-repaint cost stays proportional to the damage: when the
        change records since the last layout pinned down a dirty span,
        only the dirty paragraphs are re-wrapped and the preserved lines
        are spliced back in.  A from-scratch wrap runs when the cache
        cannot be trusted (first layout, width change, region change,
        embed mutations, dataobject swap).
        """
        self._spliced = None
        if self.data is None or self.width <= 0:
            self._install([], [])
            self._dirty_lo = self._dirty_hi = None
            self._full_layout = True
            self._place_embed_views()
            return
        done = (
            self.incremental_enabled
            and not self._full_layout
            and self._layout_incremental()
        )
        if not done:
            self._layout_full()
        self._reset_dirty()
        self._clamp_top()
        self._place_embed_views()

    def _install(self, lines: List[object], starts: List[int]) -> None:
        """Adopt a from-scratch line list and build its indexes."""
        self._lines = lines
        self._starts = _ShiftedInts(starts)
        total = 0
        prefix = [0]
        for line in lines:
            total += line.height
            prefix.append(total)
        self._prefix = _ShiftedInts(prefix)
        self._embed_lines = [
            line for line in lines if isinstance(line, _EmbedLine)
        ]

    def _splice(self, i0: int, k: int, lines: List[object],
                starts: List[int]) -> None:
        """Replace display lines ``[i0, k)`` and splice both indexes.

        Only the replaced entries are rewritten; the lines below keep
        their stored starts and heights and move through the deferred
        shifts, so the cost follows the re-wrapped paragraph.
        """
        prefix = self._prefix
        base = prefix[i0]
        old_height = prefix[k] - base
        heights = []
        total = base
        for line in lines:
            total += line.height
            heights.append(total)
        gone = [line for line in self._lines[i0:k]
                if isinstance(line, _EmbedLine)]
        if gone:
            self._embed_lines = [
                line for line in self._embed_lines if line not in gone
            ]
        self._embed_lines.extend(
            line for line in lines if isinstance(line, _EmbedLine)
        )
        self._lines[i0:k] = lines
        self._starts.splice(i0, k, starts)
        prefix.splice(i0 + 1, k + 1, heights)
        delta = total - base - old_height
        if delta:
            prefix.shift_from(i0 + 1 + len(heights), delta)
        self._spliced = (i0 + len(lines), delta)

    def _layout_full(self) -> None:
        lo, hi = self.region()
        self._install(*self._wrap_range(lo, hi, final_trailing=True))
        if obs.metrics_on:
            obs.registry.inc("text.layout_full")
            obs.registry.inc("text.lines_wrapped", len(self._lines))

    def _layout_incremental(self) -> bool:
        """Re-wrap from the first line the dirty span can touch to the
        end of the paragraph the dirty span ends in; splice the rest.

        Returns False when the cached line list cannot be repaired in
        place (the caller then falls back to a full wrap).  Cached line
        starts were already shifted into current buffer coordinates by
        :meth:`_record_change`, and every cached line starting at or
        after the dirty end holds unchanged characters.

        Greedy wrapping is prefix-stable: a line ending before the
        dirty start keeps its text and its break, so the re-wrap
        restarts at the first line ending at or after it.  A text line
        always starts from an empty wrap state; an embedded block need
        not (a text line may end at its position, flushed by it), and
        an empty range would give the trailing line no properties of
        its own, so the restart backs up a line past either.  The
        re-wrap ends just after the first newline at or after the dirty
        end, whose cached line follows it, or at the region end.
        """
        lines, starts = self._lines, self._starts
        n = len(lines)
        lo, hi = self.region()
        if (not n or not isinstance(lines[-1], _TextLine)
                or starts[0] != lo):
            return False
        if self._dirty_lo is None:
            # Only scroll/placement state changed: reuse every line.
            self._refresh_embed_lines()
            if obs.metrics_on:
                obs.registry.inc("text.layout_incremental")
                obs.registry.inc("text.lines_reused", n)
            return True
        dlo = max(lo, min(self._dirty_lo, hi))
        dhi = max(dlo, min(self._dirty_hi, hi))
        i0 = self._first_line_to(dlo)
        while i0 and (isinstance(lines[i0], _EmbedLine) or starts[i0] >= hi):
            i0 -= 1
        newline = self.data.find("\n", dhi, hi)
        stop = hi if newline < 0 else newline + 1
        new_lines, new_starts = self._wrap_range(
            starts[i0], stop, final_trailing=stop == hi
        )
        k = n if stop == hi else starts.bisect_left(stop, i0)
        self._splice(i0, k, new_lines, new_starts)
        self._refresh_embed_lines()
        if obs.metrics_on:
            obs.registry.inc("text.layout_incremental")
            obs.registry.inc("text.lines_reused", n - k + i0)
            obs.registry.inc("text.lines_wrapped", len(new_lines))
        return True

    def _refresh_embed_lines(self) -> None:
        """Re-measure embedded blocks on reused lines.

        A full layout re-asks every embedded view's ``desired_size``;
        reused lines must do the same, or an embedded component that
        grew (a table gaining rows, say) would keep its stale block
        size until the next full wrap.
        """
        for line in self._embed_lines:
            view = self._view_for_embed(line.embed)
            offer_w = max(1, self.width - line.indent - 1)
            offer_h = max(1, self.height - 1) if self.height else 8
            w, h = view.desired_size(offer_w, offer_h)
            line.width = max(1, w)
            h = max(1, h)
            if h != line.height:
                self._prefix.shift_from(self._index_of_line(line) + 1,
                                        h - line.height)
                line.height = h

    def _index_of_line(self, line: _EmbedLine) -> int:
        """Where an embedded block sits in the line list.

        An embed line's start is its mark's position and no earlier
        line starts there, so the bisect lands on it exactly.
        """
        index = self._starts.bisect_left(line.embed.pos)
        assert self._lines[index] is line, (index, line.embed.pos)
        return index

    def _line_end(self, index: int) -> int:
        """One past the last buffer position on display line ``index``."""
        return self._starts[index] + len(self._lines[index].text)

    def _wrap_range(self, start: int, end: int, final_trailing: bool
                    ) -> Tuple[List[object], List[int]]:
        """Wrap buffer positions ``[start, end)`` into display lines.

        Returns the lines and, in parallel, the position each starts at.

        The single wrap state machine: full layout runs it over the
        whole region with ``final_trailing=True`` (the trailing line
        exists even when empty — the caret home), incremental relayout
        from a line start to just after a newline with
        ``final_trailing=False``, or to the region end.
        Fonts, metrics and paragraph properties are resolved once per
        constant-style run, not once per character, and glyphs go onto
        a line a stretch at a time: a whole run of plain characters,
        cut only where the line fills.
        """
        data = self.data
        out: List[object] = []
        out_starts: List[int] = []
        base_metrics = self._metrics(self.base_font)
        base_height = base_metrics.height
        wrap_unit = base_metrics.char_width
        text = data.text(start, end)
        current: List[str] = []
        current_start = start
        current_width = 0
        line_height = base_height
        indent, centered = self._paragraph_props(start)
        avail = max(1, self.width - indent - 1)

        def flush(next_start: int) -> None:
            nonlocal current, current_start, current_width, line_height
            out.append(_TextLine("".join(current), indent, centered,
                                 max(1, line_height)))
            out_starts.append(current_start)
            current = []
            current_start = next_start
            current_width = 0
            line_height = base_height

        for run_start, run_end, styles in data.runs(start, end):
            metrics = self._metrics(self.font_for_styles(styles))
            run_indent = 0
            run_centered = False
            for style in styles:
                run_indent += style.indent
                run_centered = run_centered or style.centered
            i, run_stop = run_start - start, run_end - start
            while i < run_stop:
                if not current:
                    current_start = start + i
                    indent, centered = run_indent, run_centered
                    avail = max(1, self.width - indent - 1)
                stretch = _STRETCH.match(text, i, run_stop)
                if stretch is not None:
                    # As many glyphs of the stretch as fit; an empty
                    # line always takes its first glyph.
                    advance = metrics.char_width
                    if text[i] == "\t":
                        advance *= 4
                    room = (avail * wrap_unit - current_width) // advance
                    if room < 1:
                        if current:
                            flush(start + i)
                            continue
                        room = 1
                    stop = min(stretch.end(), i + room)
                    current.append(text[i:stop])
                    current_width += (stop - i) * advance
                    line_height = max(line_height, metrics.height)
                    i = stop
                    continue
                char, pos = text[i], start + i
                i += 1
                if char == "\n":
                    flush(pos + 1)
                    continue
                embed = data.embedded_at(pos)  # char is OBJECT_CHAR
                if current:
                    flush(pos + 1)
                if embed is not None:
                    view = self._view_for_embed(embed)
                    offer_w = max(1, self.width - indent - 1)
                    offer_h = max(1, self.height - 1) if self.height else 8
                    w, h = view.desired_size(offer_w, offer_h)
                    out.append(_EmbedLine(embed, indent, max(1, w), max(1, h)))
                    out_starts.append(pos)
        if final_trailing:
            out.append(_TextLine("".join(current), indent, centered,
                                 max(1, line_height)))
            out_starts.append(current_start)
        return out, out_starts

    def _view_for_embed(self, embed: EmbeddedObject) -> View:
        """The child view displaying ``embed``, created on demand.

        The view class is resolved by name through the dynamic loader —
        this line is where a never-linked component's code gets pulled
        into a running editor.
        """
        view = self._embed_views.get(id(embed))
        if view is None:
            try:
                cls = load_class(embed.view_type)
            except DynamicLoadError:
                cls = _UnknownComponentView
            view = cls(embed.data) if issubclass(cls, View) else _UnknownComponentView(embed.data)
            self._embed_views[id(embed)] = view
            self.add_child(view)
        return view

    def _place_embed_views(self) -> None:
        """Assign window space to embedded views for the current scroll."""
        prefix = self._prefix
        top_y = prefix[min(self._top, len(prefix) - 1)]
        for line in self._embed_lines:
            index = self._index_of_line(line)
            rect = Rect(0, 0, 0, 0)
            if index >= self._top:
                y = prefix[index] - top_y
                visible_h = min(line.height, max(0, self.height - y))
                if visible_h > 0:
                    rect = Rect(line.indent + 1, y, line.width, visible_h)
            self._embed_views_bounds(line.embed, rect)
        if not self._embed_views:
            return
        # Views whose embeds were deleted leave the tree.
        current = (
            {id(e) for e in self.data.embeds()} if self.data is not None else set()
        )
        for key, view in list(self._embed_views.items()):
            if key not in current:
                self.remove_child(view)
                del self._embed_views[key]

    def _embed_views_bounds(self, embed: EmbeddedObject, rect: Rect) -> None:
        view = self._embed_views.get(id(embed))
        if view is not None:
            clipped = self.local_bounds.intersection(rect)
            view.set_bounds(clipped if not rect.is_empty() else rect)

    # ------------------------------------------------------------------
    # Scrollable protocol
    # ------------------------------------------------------------------

    def scroll_total(self) -> int:
        self.ensure_layout()
        return self._prefix[-1]

    def scroll_pos(self) -> int:
        self.ensure_layout()
        prefix = self._prefix
        return prefix[min(self._top, len(prefix) - 1)]

    def scroll_visible(self) -> int:
        return self.height

    def scroll_clamp(self, pos: int) -> int:
        # Positions are device pixels into the wrapped document; the
        # bisect in apply_scroll_pos snaps them to a line start, so the
        # only clamp needed here is non-negativity.
        return max(0, pos)

    def apply_scroll_pos(self, pos: int) -> None:
        # A viewport-origin move: the wrap (line list, prefix heights)
        # is untouched, so _needs_layout stays clear — scrolling must
        # never re-run layout.  Only embedded children, whose bounds
        # are viewport-relative, need replacing.
        self.ensure_layout()
        index = self._prefix.bisect_right(pos) - 1
        self._top = min(index, max(0, len(self._lines) - 1))
        self._clamp_top()
        if self._embed_views:
            self._place_embed_views()

    def scroll_blit_ok(self) -> bool:
        # Display lines occupy disjoint vertical bands on every backend
        # (line.height covers the glyphs), so TextView may shift on the
        # raster device too — unless embeds are present: a bottom-
        # clipped embedded view renders content a shift cannot source.
        return not self._embed_views

    def _clamp_top(self) -> None:
        self._top = max(0, min(self._top, max(0, len(self._lines) - 1)))

    def _scroll_dot_visible(self) -> None:
        # Decide against the *current* wrap, not the stale pre-edit
        # lines: an edit that split the caret's display line would
        # otherwise leave the caret one row below the window and the
        # view would never follow it.  Cheap now that layout is
        # incremental.  Like apply_scroll_pos, this moves only the
        # viewport origin: the wrap stays valid and _needs_layout
        # stays clear.
        self.ensure_layout()
        index = self._line_index_of(self.dot)
        if index is None:
            return
        before = self._top
        if index < self._top:
            self._top = index
        else:
            # The first top from which the dot line starts inside the
            # window.
            prefix = self._prefix
            self._top = min(index, prefix.bisect_right(
                prefix[index] - max(1, self.height), self._top))
        if self._top != before and self._embed_views:
            self._place_embed_views()

    # ------------------------------------------------------------------
    # Position mapping
    # ------------------------------------------------------------------

    def _line_index_of(self, pos: int) -> Optional[int]:
        self.ensure_layout()
        lines, starts = self._lines, self._starts
        n = len(lines)
        if not n:
            return None
        idx = max(0, starts.bisect_right(pos) - 1)
        # Earlier lines can share a start boundary (an embed at the
        # very end leaves the trailing empty line at the embed's own
        # position); back up while a predecessor still contains ``pos``.
        while idx > 0 and self._line_end(idx - 1) > pos:
            idx -= 1
        for index in range(idx, n):
            start = starts[index]
            end = start + len(lines[index].text)
            if start <= pos < end:
                return index
            if isinstance(lines[index], _TextLine) and pos == end and (
                index == n - 1 or starts[index + 1] > pos
            ):
                return index
        return n - 1

    def _caret_row(self) -> Optional[Rect]:
        """The caret line's row in view coordinates, if it is on screen."""
        index = self._line_index_of(self.dot)
        if index is None or index < self._top:
            return None
        y = self._prefix[index] - self._prefix[self._top]
        if y >= self.height:
            return None
        return Rect(0, y, self.width, self._lines[index].height)

    def _line_runs(self, start: int, line: _TextLine) -> List[tuple]:
        """``(lo, hi, font, char_width)`` per constant-style run of a
        text line, as offsets into ``line.text``: fonts and metrics are
        resolved once per run, not once per character."""
        runs = []
        for run_start, run_end, styles in self.data.runs(
            start, start + len(line.text)
        ):
            font = self.font_for_styles(styles)
            runs.append((run_start - start, run_end - start, font,
                         self._metrics(font).char_width))
        return runs

    def _line_origin(self, line: _TextLine, runs: List[tuple]) -> int:
        """The x of a text line's first cell (indent plus centering)."""
        if not line.centered:
            return line.indent
        used = _advance(line.text, runs, 0, len(line.text))
        return line.indent + max(0, (self.width - line.indent - used) // 2)

    def position_at(self, point: Point) -> int:
        """Document position under a view-local point (hit test)."""
        self.ensure_layout()
        if self.data is None:
            return 0
        prefix = self._prefix
        index = prefix.bisect_right(prefix[self._top] + point.y) - 1
        if point.y < 0 or index >= len(self._lines):
            return self.region()[1]
        line = self._lines[index]
        start = self._starts[index]
        if isinstance(line, _EmbedLine):
            return start
        runs = self._line_runs(start, line)
        x = self._line_origin(line, runs)
        text = line.text
        for lo, hi, _font, width in runs:
            for offset in range(lo, hi):
                step = width * 4 if text[offset] == "\t" else width
                if point.x < x + step:
                    return start + offset
                x += step
        return start + len(text)

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------

    def draw(self, graphic: Graphic) -> None:
        self.ensure_layout()
        if self.data is None:
            return
        selection = self.selection()
        caret_index = (
            self._line_index_of(self.dot) if selection is None else None
        )
        lines = self._lines
        prefix = self._prefix
        clip = graphic.bounds
        top_offset = prefix[min(self._top, len(prefix) - 1)]
        limit = min(self.height, clip.bottom)
        # Start at the first display line intersecting the clip instead
        # of walking down from _top unconditionally (damage culling).
        start = prefix.bisect_right(top_offset + max(0, clip.top)) - 1
        start = max(start, self._top)
        if start >= len(lines):
            return
        y = prefix[start] - top_offset
        for index in range(start, len(lines)):
            line = lines[index]
            if y >= limit:
                break
            # Embedded blocks draw themselves, as child views, after us.
            if isinstance(line, _TextLine):
                self._draw_line(graphic, index, line, y, selection,
                                index == caret_index)
            y += line.height

    def _draw_line(self, graphic: Graphic, index: int, line: _TextLine,
                   y: int, selection: Optional[Tuple[int, int]],
                   caret: bool) -> None:
        """Paint one text line at row ``y``.

        One ``draw_string`` per tab-free piece of each constant-style
        run: tab cells are skipped, never painted as spaces, so they
        keep the attributes underneath.  Then one ``invert_rect`` over
        the selected span (glyphs never ink outside their own cell, so
        inverting after the whole line equals inverting per glyph), or
        the caret.
        """
        start = self._starts[index]
        text = line.text
        runs = self._line_runs(start, line)
        origin = x = self._line_origin(line, runs)
        for lo, hi, font, width in runs:
            graphic.set_font(font)
            for piece in text[lo:hi].split("\t"):
                if piece:
                    graphic.draw_string(x, y, piece)
                x += width * (len(piece) + 4)
            x -= width * 4  # no tab after the run's last piece
        if selection is not None:
            lo = max(0, selection[0] - start)
            hi = min(len(text), selection[1] - start)
            if lo < hi:
                left = _advance(text, runs, origin, lo)
                right = _advance(text, runs, origin, hi)
                graphic.invert_rect(Rect(left, y, right - left, line.height))
        elif caret:
            graphic.invert_rect(
                Rect(_advance(text, runs, origin, self.dot - start), y,
                     self._metrics(self.base_font).char_width, line.height)
            )

    # ------------------------------------------------------------------
    # Mouse
    # ------------------------------------------------------------------

    def handle_mouse(self, event) -> bool:
        from ...wm.events import MouseAction

        if event.action == MouseAction.DOWN:
            self.set_dot(self.position_at(event.point))
            self.want_input_focus()
            return True
        if event.action == MouseAction.DRAG:
            self.set_dot(self.position_at(event.point), extend=True)
            return True
        if event.action == MouseAction.UP:
            return True
        return False

    # ------------------------------------------------------------------
    # Editing commands
    # ------------------------------------------------------------------

    def insert_text(self, text: str) -> None:
        """Type ``text`` at the caret (replacing any selection)."""
        if self.data is None or self.read_only:
            return
        span = self.selection()
        if span is not None:
            self.data.delete(span[0], span[1] - span[0])
            self._clear_selection()
        at = self.dot
        self.data.insert(at, text)
        self._dot.pos = at + len(text)
        self._follow_caret()

    def insert_object(self, data, view_type: Optional[str] = None):
        """Embed a component at the caret."""
        if self.data is None or self.read_only:
            return None
        at = self.dot
        embed = self.data.insert_object(at, data, view_type)
        self._dot.pos = at + 1
        self._follow_caret()
        return embed

    def delete_selection_or(self, fallback_start: int, fallback_len: int) -> None:
        if self.data is None or self.read_only:
            return
        span = self.selection()
        if span is not None:
            self.data.delete(span[0], span[1] - span[0])
            self._clear_selection()
        elif 0 <= fallback_start and fallback_start + fallback_len <= self.data.length:
            self.data.delete(fallback_start, fallback_len)
        self._follow_caret()

    def _follow_caret(self) -> None:
        """Keep the caret in the window after an edit moved it.

        Typing at the bottom row used to push the caret silently below
        the window once its display line wrapped; the view never
        scrolled after it.  A scroll shifts the view, and the edit's
        queued rows move with the shift (:meth:`_scrolled_from`).
        """
        # The shift is measured in the current layout, whose clamp may
        # move ``_top`` when a pending change is laid out.
        self.ensure_layout()
        before = self._top
        self._scroll_dot_visible()
        if self._top != before:
            self._scrolled_from(before)

    def _scrolled_from(self, before: int) -> None:
        """Post repair for a caret-driven move of ``_top`` from line
        ``before``: a shift of the whole view plus the exposed strip,
        or whole-view damage when the shift is refused."""
        prefix = self._prefix
        self.scroll_moved(prefix[before] - prefix[self._top])

    # -- command implementations (bound in the keymap) ----------------------

    def _cmd_self_insert(self, view, key) -> None:
        self.insert_text(key.char)

    def _cmd_newline(self, view, key) -> None:
        self.insert_text("\n")

    def _cmd_tab(self, view, key) -> None:
        self.insert_text("\t")

    def _cmd_backspace(self, view, key) -> None:
        if self.selection() is not None:
            self.delete_selection_or(0, 0)
        elif self.dot > 0:
            at = self.dot - 1
            self.delete_selection_or(at, 1)

    def _cmd_delete(self, view, key) -> None:
        self.delete_selection_or(self.dot, 1)

    def _cmd_left(self, view, key) -> None:
        self.set_dot(self.dot - 1)

    def _cmd_right(self, view, key) -> None:
        self.set_dot(self.dot + 1)

    def _vertical_move(self, delta: int) -> None:
        index = self._line_index_of(self.dot)
        if index is None:
            return
        target = max(0, min(index + delta, len(self._lines) - 1))
        start = self._starts[target]
        offset = self.dot - self._starts[index]
        if isinstance(self._lines[target], _TextLine):
            self.set_dot(min(start + offset, self._line_end(target)))
        else:
            self.set_dot(start)

    def _cmd_up(self, view, key) -> None:
        self._vertical_move(-1)

    def _cmd_down(self, view, key) -> None:
        self._vertical_move(1)

    def _line_bounds(self) -> Tuple[int, int]:
        """(start, end) of the logical line around the caret."""
        assert self.data is not None
        data, dot = self.data, self.dot
        size = data.length
        start = data.rfind("\n", 0, dot) + 1
        end = data.find("\n", dot, size)
        return (start, size if end < 0 else end)

    def _cmd_line_start(self, view, key) -> None:
        self.set_dot(self._line_bounds()[0])

    def _cmd_line_end(self, view, key) -> None:
        self.set_dot(self._line_bounds()[1])

    def _cmd_kill_line(self, view, key) -> None:
        if self.data is None or self.read_only:
            return
        start, end = self._line_bounds()
        if self.dot == end and end < self.data.length:
            end += 1  # at EOL: kill the newline
        if end > self.dot:
            _clipboard[0] = self.data.text(self.dot, end)
            self.data.delete(self.dot, end - self.dot)

    def _cmd_yank(self, view, key) -> None:
        self.insert_text(_clipboard[0])

    def search_forward(self, needle: str) -> int:
        """Move the caret to the next occurrence of ``needle``.

        Searches from just past the caret, wrapping to the start;
        returns the match position or -1.  Used by C-s via the frame's
        dialog facility.
        """
        if self.data is None or not needle:
            return -1
        pos = self.data.search(needle, self.dot + 1)
        if pos < 0:
            pos = self.data.search(needle, 0)
        if pos >= 0:
            self.set_dot(pos)
        return pos

    def _enclosing_frame(self):
        node = self.parent
        while node is not None and not hasattr(node, "ask"):
            node = node.parent
        return node

    def _cmd_search(self, view, key) -> None:
        frame = self._enclosing_frame()
        if frame is None:
            return

        def do_search(needle: str) -> None:
            if self.search_forward(needle) < 0 and hasattr(
                frame, "post_message"
            ):
                frame.post_message(f"Can't find {needle!r}")
            self.want_input_focus()

        frame.ask("Search for: ", do_search)

    def _cmd_copy(self, view, event) -> None:
        text = self.selected_text()
        if text:
            _clipboard[0] = text.replace(OBJECT_CHAR, "")

    def _cmd_cut(self, view, event) -> None:
        self._cmd_copy(view, event)
        self.delete_selection_or(0, 0)

    def _cmd_paste(self, view, event) -> None:
        self.insert_text(_clipboard[0])

    def _apply_style(self, name: str) -> None:
        span = self.selection()
        if span is not None and self.data is not None and not self.read_only:
            self.data.add_style(span[0], span[1], name)

    def _cmd_plainer(self, view, event) -> None:
        span = self.selection()
        if span is not None and self.data is not None:
            self.data.clear_styles(span[0], span[1])

    def _bind_keys(self) -> None:
        keymap = self.keymap
        keymap.bind_printables(self._cmd_self_insert)
        keymap.bind("Return", self._cmd_newline)
        keymap.bind("Tab", self._cmd_tab)
        keymap.bind("Backspace", self._cmd_backspace)
        keymap.bind("Delete", self._cmd_delete)
        keymap.bind("C-d", self._cmd_delete)
        keymap.bind("Left", self._cmd_left)
        keymap.bind("Right", self._cmd_right)
        keymap.bind("Up", self._cmd_up)
        keymap.bind("Down", self._cmd_down)
        keymap.bind("C-b", self._cmd_left)
        keymap.bind("C-f", self._cmd_right)
        keymap.bind("C-p", self._cmd_up)
        keymap.bind("C-n", self._cmd_down)
        keymap.bind("C-a", self._cmd_line_start)
        keymap.bind("C-e", self._cmd_line_end)
        keymap.bind("C-k", self._cmd_kill_line)
        keymap.bind("C-y", self._cmd_yank)
        keymap.bind("C-w", self._cmd_cut)
        keymap.bind("C-s", self._cmd_search)

    def _build_menus(self) -> None:
        card = self.menu_card("Text")
        card.add("Cut", lambda v, e: self._cmd_cut(v, e), keys="C-w")
        card.add("Copy", lambda v, e: self._cmd_copy(v, e))
        card.add("Paste", lambda v, e: self._cmd_paste(v, e), keys="C-y")
        card.add("Search...", lambda v, e: self._cmd_search(v, e),
                 keys="C-s")
        style_card = self.menu_card("Style")
        for name in ("bold", "italic", "bigger", "center", "typewriter"):
            style_card.add(
                name.capitalize(),
                lambda v, e, _n=name: self._apply_style(_n),
            )
        style_card.add("Plainer", self._cmd_plainer)

    # ------------------------------------------------------------------
    # Sizing for embedding (text inside tables, drawings, ...)
    # ------------------------------------------------------------------

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        """Enough lines to show the content at the offered width."""
        if self.data is None:
            return (width, 1)
        base = self._metrics(self.base_font)
        rows = 0
        for paragraph in self.data.text().split("\n"):
            cells = max(1, len(paragraph))
            per_row = max(1, width // max(1, base.char_width))
            rows += (cells + per_row - 1) // per_row
        rows += sum(1 for e in self.data.embeds())
        return (width, min(height, max(1, rows) * base.height))


class _UnknownComponentView(View):
    """Placeholder shown when a component's code cannot be found.

    The original editor showed an empty box for unloadable components;
    this keeps documents usable when a plugin is missing.
    """

    atk_name = "unknowncomponentview"

    def __init__(self, dataobject=None) -> None:
        super().__init__(dataobject)

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        return (min(width, 20), min(height, 3))

    def draw(self, graphic: Graphic) -> None:
        graphic.draw_rect(self.local_bounds)
        tag = self.dataobject.type_tag if self.dataobject else "?"
        graphic.draw_string_centered(self.local_bounds, f"<{tag}>")
