"""Scroll bar (paper sections 2 and 3).

"While it is often the case that a view has an underlying data object,
there are many cases when a view will be used to solely provide a user
interface function.  In such a case there is no underlying data object.
The scroll bar is one such example.  It only adjusts the information
contained in another view."

:class:`ScrollBar` wraps one *body* view (in Figure 1 the text view)
and draws an Andrew-style scroll bar in a column on the left edge.
The body advertises its scroll state through the :class:`Scrollable`
protocol; the bar has no data object of its own.

Routing (§3): the bar claims mouse events in its own column and passes
everything else to the body — a parental decision, not a geometric one,
since the bar could equally claim events anywhere.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import obs
from ..core.view import View
from ..graphics.fontdesc import FontDesc
from ..graphics.geometry import Rect
from ..graphics.graphic import Graphic
from ..wm.events import MouseAction, MouseEvent

__all__ = ["Scrollable", "ScrollBar"]

BAR_WIDTH = 2  # one column of bar, one of separation

#: The body font every scrolling view draws with; its device height
#: tells a view whether one scroll unit is one device row (cell
#: backends) or several overlapping glyph rows (raster).
_PROBE_FONT = FontDesc("andy", 12)


class Scrollable:
    """Protocol and shared mechanics for views a scroll bar adjusts.

    Positions are in the scrollee's own units (wrapped display lines
    for the text view, rows for the table view).  Subclasses implement
    the three state queries plus :meth:`apply_scroll_pos`; the
    :meth:`set_scroll_pos` template clamps, applies, and posts the
    cheapest damage that repairs the move — a surface shift plus one
    exposed strip when :meth:`~repro.core.view.View.want_scroll`
    accepts it, full-area damage otherwise.  The five scrolling views
    used to carry copy-pasted clamp implementations of exactly this.
    """

    def scroll_total(self) -> int:
        """Total extent of the content."""
        raise NotImplementedError

    def scroll_pos(self) -> int:
        """First visible position."""
        raise NotImplementedError

    def scroll_visible(self) -> int:
        """How many positions are visible at once."""
        raise NotImplementedError

    def apply_scroll_pos(self, pos: int) -> None:
        """Move the viewport origin to the (already clamped) ``pos``,
        touching *only* viewport state — no damage posts, and no layout
        invalidation unless content geometry really changed."""
        raise NotImplementedError

    def scroll_clamp(self, pos: int) -> int:
        """Clamp a requested position into the scrollable range."""
        return max(0, min(pos, max(0, self.scroll_total() - 1)))

    def scroll_device_offset(self) -> int:
        """The viewport origin in *device rows* (feeds the shift
        distance).  Default: positions are device rows already."""
        return self.scroll_pos()

    def scroll_blit_area(self) -> Rect:
        """The local region that scrolls (excludes fixed headers)."""
        return self.local_bounds

    def scroll_blit_ok(self) -> bool:
        """May this move be satisfied by a surface shift?

        Default: only when one scroll unit is one device row — on the
        raster backend glyphs are taller than the 1-unit rows list-like
        views draw on, so vertically shifted rows would interleave.
        """
        return self._scroll_unit_is_device_row()

    def _scroll_unit_is_device_row(self) -> bool:
        im = self.interaction_manager()
        if im is None:
            return False
        return im.window_system.font_metrics(_PROBE_FONT).height == 1

    def set_scroll_pos(self, pos: int) -> None:
        """Jump so ``pos`` is the first visible position (clamped)."""
        before = self.scroll_device_offset()
        self.apply_scroll_pos(self.scroll_clamp(pos))
        self.scroll_moved(before - self.scroll_device_offset())

    def scroll_moved(self, dy: int) -> None:
        """Post repair for a viewport move of ``dy`` device rows
        (none for a move that went nowhere, e.g. paging at the end)."""
        if dy == 0:
            return
        area = self.scroll_blit_area()
        if self.scroll_blit_ok() and self.want_scroll(area, dy):
            return
        if obs.metrics_on:
            obs.registry.inc("view.rows_repainted", area.height)
        self.want_update(area)


class ScrollBar(View):
    """A vertical scroll bar wrapping a scrollable body view."""

    atk_name = "scrollbar"

    def __init__(self, body: Optional[View] = None) -> None:
        super().__init__()
        self.body: Optional[View] = None
        self._dragging = False
        if body is not None:
            self.set_body(body)

    def set_body(self, body: View) -> None:
        if self.body is not None:
            self.remove_child(self.body)
        self.body = body
        self.add_child(body)
        self._needs_layout = True

    def initial_focus(self):
        return self.body.initial_focus() if self.body is not None else self

    def layout(self) -> None:
        if self.body is not None:
            self.body.set_bounds(
                Rect(BAR_WIDTH, 0,
                     max(0, self.width - BAR_WIDTH), self.height)
            )

    # -- scroll arithmetic ------------------------------------------------

    def _scrollable(self) -> Optional[Scrollable]:
        if isinstance(self.body, Scrollable):
            return self.body
        return None

    def thumb_extent(self) -> Tuple[int, int]:
        """(top, height) of the thumb in bar rows."""
        body = self._scrollable()
        track = max(1, self.height)
        if body is None:
            return (0, track)
        total = max(1, body.scroll_total())
        visible = min(body.scroll_visible(), total)
        height = max(1, visible * track // total)
        top = min(body.scroll_pos() * track // total, track - height)
        return (top, height)

    def _pos_for_row(self, row: int) -> int:
        """Map a track row to a scroll position.

        The track's rows [0, track-1] span positions [0, max_pos] where
        ``max_pos`` pins the *last* visible page against the bottom —
        so dragging the thumb to the final track row reaches
        ``scroll_total - scroll_visible`` exactly.  (The old
        ``row * total // track`` mapping could never return max_pos on
        short tracks: the final line stayed unreachable by thumb.)

        A document that fits the view keeps the classic proportional
        reach ``[0, total - 1]`` instead: ATK's bars let a short
        document scroll partly off the top, and views whose units are
        not device rows (the text view's positions are wrapped-height
        offsets) clamp for themselves.
        """
        body = self._scrollable()
        if body is None:
            return 0
        track = max(1, self.height)
        total = body.scroll_total()
        max_pos = max(0, total - min(body.scroll_visible(), total))
        if max_pos == 0:
            max_pos = max(0, total - 1)
        if track <= 1:
            return 0
        return max(0, min(row, track - 1)) * max_pos // (track - 1)

    # -- drawing --------------------------------------------------------------

    def draw(self, graphic: Graphic) -> None:
        if self.height <= 0:
            return
        graphic.draw_vline(0, 0, self.height - 1)
        top, height = self.thumb_extent()
        graphic.fill_rect(Rect(0, top, 1, height), 1)

    # -- routing (§3) -------------------------------------------------------------

    def route_mouse(self, event: MouseEvent) -> Optional[View]:
        if event.point.x < BAR_WIDTH:
            return None  # the bar's own column: handle here
        return self.body

    def _bar_update(self) -> None:
        """Repaint the bar's own column (the thumb moved).

        Deliberately *not* a full-view update: damage covering the body
        would repaint the whole body over the shift it just made, and
        refuse a further shift in the same pump.
        """
        self.want_update(Rect(0, 0, BAR_WIDTH, self.height))

    def handle_mouse(self, event: MouseEvent) -> bool:
        body = self._scrollable()
        if body is None:
            return False
        if event.action == MouseAction.DOWN:
            self._dragging = True
            body.set_scroll_pos(self._pos_for_row(event.point.y))
            self._bar_update()
            return True
        if event.action == MouseAction.DRAG and self._dragging:
            body.set_scroll_pos(self._pos_for_row(event.point.y))
            self._bar_update()
            return True
        if event.action == MouseAction.UP:
            self._dragging = False
            return True
        return False

    # -- keyboard paging: the bar adds Page bindings for its body ------------

    def handle_key(self, event) -> bool:
        body = self._scrollable()
        if body is None:
            return super().handle_key(event)
        if event.keysym() in ("Next", "C-v"):
            body.set_scroll_pos(body.scroll_pos() + max(1, body.scroll_visible() - 1))
            self._bar_update()
            return True
        if event.keysym() in ("Prior", "M-v"):
            body.set_scroll_pos(body.scroll_pos() - max(1, body.scroll_visible() - 1))
            self._bar_update()
            return True
        return super().handle_key(event)
