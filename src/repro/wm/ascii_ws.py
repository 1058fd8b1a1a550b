"""The ascii window system: a cell-grid backend.

Plays the role of the original ITC/Andrew window system in this
reproduction: a complete, self-contained display that renders windows
into character-cell grids.  Device units are cells; every font is one
cell high and one cell wide (a fixed-cell device, like a terminal).

Because the output is plain text, application snapshots — the paper's
Figures 2-5 — come out as printable screens, which is exactly what the
snapshot benches and examples show.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import obs
from ..graphics.fontdesc import FontDesc, FontMetrics
from ..graphics.geometry import Point, Rect
from ..graphics.graphic import Graphic
from ..graphics.image import Bitmap
from .base import BackendWindow, OffscreenWindow, WindowSystem

__all__ = ["CellSurface", "AsciiGraphic", "AsciiWindow", "AsciiWindowSystem"]

_H = "-"
_V = "|"
_X = "+"
_INK = "#"

#: ``bytes.translate`` table that flips a cell's inverse attribute.
_FLIP = bytes(b ^ 1 for b in range(256))

#: Cell-device metrics memo, shared by the graphic (per draw_string)
#: and the window system (per layout query): every font is one cell.
_CELL_METRICS: Dict[FontDesc, FontMetrics] = {}


def _cell_metrics(desc: FontDesc) -> FontMetrics:
    cached = _CELL_METRICS.get(desc)
    if cached is None:
        cached = FontMetrics(desc, char_width=1, ascent=1, descent=0)
        _CELL_METRICS[desc] = cached
    return cached


class CellSurface:
    """A mutable grid of character cells with inverse/bold attributes.

    Since the last :meth:`take_frame` the surface records the band of
    rows written (``_dirty_top`` up to ``_dirty_bottom``) and, on a
    remote window (``_copies`` a list), the copies made before any
    write, as wire ``copy`` ops.  Every other write marks its rows:
    the device primitives, :meth:`put`, :meth:`toggle_inverse` and an
    offscreen ``copy_to``.  A remote encoder ships the copies and diffs
    the band, so a new writer that skips the mark ships a stale frame.
    """

    __slots__ = ("width", "height", "_chars", "_inverse", "_bold",
                 "_dirty_top", "_dirty_bottom", "_copies")

    def __init__(self, width: int, height: int) -> None:
        self.width = int(width)
        self.height = int(height)
        size = self.width * self.height
        self._chars = [" "] * size
        self._inverse = bytearray(size)
        self._bold = bytearray(size)
        self._dirty_top, self._dirty_bottom = self.height, 0
        self._copies = None

    def mark_rows(self, top: int, bottom: int) -> None:
        """Record rows ``top`` up to ``bottom`` (exclusive) as written."""
        if top < self._dirty_top:
            self._dirty_top = top
        if bottom > self._dirty_bottom:
            self._dirty_bottom = bottom

    def take_frame(self) -> Tuple[Sequence[tuple], range]:
        """The copies recorded and the rows written since the last call;
        clears both."""
        copies = self._copies
        rows = range(self._dirty_top, self._dirty_bottom)
        if copies:
            self._copies = []
        self._dirty_top, self._dirty_bottom = self.height, 0
        return copies or (), rows

    def _index(self, x: int, y: int) -> int:
        return y * self.width + x

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def put(self, x: int, y: int, char: str, inverse: int = -1, bold: int = -1):
        """Write one cell; ``-1`` leaves an attribute unchanged."""
        if not self.in_bounds(x, y):
            return
        i = y * self.width + x
        self._chars[i] = char
        # mark_rows, inlined: lines and blits put cell by cell.
        if y < self._dirty_top:
            self._dirty_top = y
        if y >= self._dirty_bottom:
            self._dirty_bottom = y + 1
        if inverse >= 0:
            self._inverse[i] = 1 if inverse else 0
        if bold >= 0:
            self._bold[i] = 1 if bold else 0

    def char_at(self, x: int, y: int) -> str:
        if not self.in_bounds(x, y):
            return " "
        return self._chars[self._index(x, y)]

    def inverse_at(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and bool(self._inverse[self._index(x, y)])

    def bold_at(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and bool(self._bold[self._index(x, y)])

    def toggle_inverse(self, x: int, y: int) -> None:
        if self.in_bounds(x, y):
            self._inverse[self._index(x, y)] ^= 1
            self.mark_rows(y, y + 1)

    def lines(self) -> List[str]:
        """Render the grid; inverse blanks print as ``%`` so selections
        and filled regions stay visible in pure-text snapshots."""
        out = []
        for y in range(self.height):
            row = []
            for x in range(self.width):
                i = self._index(x, y)
                char = self._chars[i]
                if self._inverse[i] and char == " ":
                    char = "%"
                row.append(char)
            out.append("".join(row))
        return out


class AsciiGraphic(Graphic):
    """Drawable over a :class:`CellSurface`."""

    def __init__(self, surface: CellSurface, origin: Point = Point(0, 0),
                 clip: Rect = None):
        self._surface = surface
        super().__init__(origin, clip)

    # -- device primitives ---------------------------------------------

    @staticmethod
    def _tally(op: str) -> None:
        # The ascii backend's half of the unified request accounting:
        # same op vocabulary as the raster backend's RequestCounter.
        if obs.metrics_on:
            obs.registry.inc("wm.ascii.requests")
            obs.registry.inc("wm.ascii." + op)

    def device_size(self) -> Tuple[int, int]:
        return (self._surface.width, self._surface.height)

    def device_fill_rect(self, rect: Rect, value: int) -> None:
        self._tally("fill_rect")
        surface = self._surface
        width = surface.width
        left, right = max(rect.left, 0), min(rect.right, width)
        top, bottom = max(rect.top, 0), min(rect.bottom, surface.height)
        if left >= right or top >= bottom:
            return
        surface.mark_rows(top, bottom)
        span = right - left
        inverse = surface._inverse
        if value < 0:
            for y in range(top, bottom):
                i = y * width + left
                inverse[i:i + span] = inverse[i:i + span].translate(_FLIP)
            return
        chars, bold = surface._chars, surface._bold
        ink = [_INK if value else " "] * span
        zeros = bytes(span)
        for y in range(top, bottom):
            i = y * width + left
            chars[i:i + span] = ink
            inverse[i:i + span] = zeros
            if not value:
                bold[i:i + span] = zeros

    def device_set_pixel(self, x: int, y: int, value: int) -> None:
        self._tally("set_pixel")
        if value < 0:
            self._surface.toggle_inverse(x, y)
        else:
            self._surface.put(x, y, _INK if value else " ", inverse=0)

    can_copy_area = True

    def device_copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        self._tally("copy_area")
        surface = self._surface
        width, height = surface.width, surface.height
        # Clip the source to the surface and to where it lands.
        left, top, rect_width, rect_height = rect
        right = min(left + rect_width, width, width - dx)
        bottom = min(top + rect_height, height, height - dy)
        left = max(left, 0, -dx)
        top = max(top, 0, -dy)
        if left >= right or top >= bottom:
            return
        # A copy before any write ships as is: a replica replaying it
        # keeps every unmarked row equal.  After a write it marks the
        # rows it lands on instead.
        copies = surface._copies
        if copies is not None and surface._dirty_top >= surface._dirty_bottom:
            copies.append(("copy", *rect, dx, dy))
        else:
            surface.mark_rows(top + dy, bottom + dy)
        chars, inverse, bold = surface._chars, surface._inverse, surface._bold
        span = right - left
        rows = range(top, bottom)
        if dy > 0:  # shifting down: copy bottom-up so sources stay unread
            rows = reversed(rows)
        for y in rows:
            src = y * width + left
            dst = (y + dy) * width + left + dx
            # RHS slices materialize copies, so horizontal overlap within
            # a row is safe in either direction.
            chars[dst:dst + span] = chars[src:src + span]
            inverse[dst:dst + span] = inverse[src:src + span]
            bold[dst:dst + span] = bold[src:src + span]

    def device_hline(self, x0: int, x1: int, y: int, value: int) -> None:
        self._tally("hline")
        if value < 0 or not value:
            Graphic.device_hline(self, x0, x1, y, value)
            return
        for x in range(x0, x1 + 1):
            # Crossing a vertical rule makes a corner/junction glyph.
            current = self._surface.char_at(x, y)
            char = _X if current in (_V, _X) else _H
            self._surface.put(x, y, char, inverse=0)

    def device_vline(self, x: int, y0: int, y1: int, value: int) -> None:
        self._tally("vline")
        if value < 0 or not value:
            Graphic.device_vline(self, x, y0, y1, value)
            return
        for y in range(y0, y1 + 1):
            current = self._surface.char_at(x, y)
            char = _X if current in (_H, _X) else _V
            self._surface.put(x, y, char, inverse=0)

    def device_draw_text(self, x: int, y: int, text: str, font: FontDesc) -> None:
        self._tally("draw_text")
        surface = self._surface
        clip = self.clip
        if not (max(clip.top, 0) <= y < min(clip.bottom, surface.height)):
            return
        # A tab spans four blank cells, so a clip edge can split it.
        if "\t" in text:
            text = text.replace("\t", "    ")
        left = max(x, clip.left, 0)
        right = min(x + len(text), clip.right, surface.width)
        if left >= right:
            return
        span = right - left
        surface.mark_rows(y, y + 1)
        i = y * surface.width + left
        surface._chars[i:i + span] = text[left - x:right - x]
        surface._inverse[i:i + span] = bytes(span)
        surface._bold[i:i + span] = b"\x01" * span if font.bold else bytes(span)

    def device_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        self._tally("blit")
        for by in range(bitmap.height):
            for bx in range(bitmap.width):
                if bitmap.get(bx, by):
                    self._surface.put(x + bx, y + by, _INK, inverse=0)

    def font_metrics(self, desc: FontDesc) -> FontMetrics:
        # A cell device: every font is exactly one cell.
        return _cell_metrics(desc)


class AsciiOffscreen(OffscreenWindow):
    """Off-screen cell surface for the ascii backend."""

    def __init__(self, width: int, height: int) -> None:
        super().__init__(width, height)
        self.surface = CellSurface(width, height)

    def graphic(self) -> AsciiGraphic:
        return AsciiGraphic(self.surface)

    def _resize_surface(self, width: int, height: int) -> None:
        self.surface = CellSurface(width, height)

    def surface_bytes(self) -> int:
        # One char plus the inverse and bold attribute bytes per cell.
        return self.width * self.height * 3

    def copy_to(self, target: Graphic, x: int, y: int) -> None:
        self.count_blit()
        device = target.rect_to_device(Rect(x, y, self.width, self.height))
        visible = device.intersection(target.clip)
        if visible.is_empty():
            return
        if isinstance(target, AsciiGraphic):
            # Same-device blit: copy cells verbatim (char + inverse +
            # bold), clipped to the target — true copy semantics, so a
            # pre-composed image lands pixel-identical.
            target._tally("blit")
            src, dst = self.surface, target._surface
            # Clamp to the destination surface too: a clip may run past
            # it, and a negative slice index would silently wrap.
            visible = visible.intersection(Rect(0, 0, dst.width, dst.height))
            if visible.is_empty():
                return
            dst.mark_rows(visible.top, visible.bottom)
            span = visible.width
            sx = visible.left - device.left
            sy = visible.top - device.top
            for row in range(visible.height):
                s = (sy + row) * src.width + sx
                d = (visible.top + row) * dst.width + visible.left
                dst._chars[d:d + span] = src._chars[s:s + span]
                dst._inverse[d:d + span] = src._inverse[s:s + span]
                dst._bold[d:d + span] = src._bold[s:s + span]
        else:
            # Cross-medium fallback (e.g. a printer drawable): rows as
            # text, which the target clips at glyph granularity.
            for row, line in enumerate(self.surface.lines()):
                if line.rstrip():
                    target.draw_string(x, y + row, line)


class AsciiWindow(BackendWindow):
    """A top-level window rendered as a character grid."""

    def __init__(self, title: str, width: int, height: int) -> None:
        super().__init__(title, width, height)
        self._resize_surface(width, height)

    def graphic(self) -> AsciiGraphic:
        return AsciiGraphic(self.surface)

    def _resize_surface(self, width: int, height: int) -> None:
        self.surface = CellSurface(width, height)

    def snapshot_lines(self) -> List[str]:
        return self.surface.lines()

    def snapshot(self) -> str:
        """The whole window as one newline-joined string."""
        return "\n".join(self.snapshot_lines())


class AsciiWindowSystem(WindowSystem):
    """The cell-grid window system (stands in for the ITC Andrew WS)."""

    atk_name = "asciiws"
    name = "ascii"

    def _make_window(self, title: str, width: int, height: int) -> AsciiWindow:
        return AsciiWindow(title, width, height)

    def create_offscreen(self, width: int, height: int) -> AsciiOffscreen:
        return AsciiOffscreen(width, height)

    def _font_metrics(self, desc: FontDesc) -> FontMetrics:
        return _cell_metrics(desc)

    def stats(self) -> Dict[str, int]:
        return {"windows": len(self.windows)}
