"""The drawable: the toolkit's output abstraction (paper section 4).

"The graphics layer is built using a third type of object, the
*drawable*.  A drawable contains information about the underlying
graphics medium ... the window to draw in, the location of the drawable
in that window, a small graphics state (e.g. current point, line
thickness, current font), the coordinate system for the drawable."

:class:`Graphic` reproduces that object.  It carries the graphics state
and coordinate system and exposes X.11-flavoured drawing operations;
each window system backend subclasses it with a handful of device
primitives (``device_*`` methods).  Views never see the device — they
receive a :class:`Graphic` and may split off *child* drawables for their
subviews with :meth:`child`, which is how screen space flows down the
view tree.

Because a drawable is just a coordinate system plus device, a view can
be pointed at a *printer* drawable and redrawn to produce hardcopy — the
paper's default-printing design, reproduced in
``repro/wm/printer.py`` and exercised by experiment E11.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..testing import faultinject
from .color import BLACK, Color, TransferMode
from .fontdesc import FontDesc, FontMetrics
from .geometry import Point, Rect
from .image import Bitmap

__all__ = ["Graphic", "GraphicsState"]

DEFAULT_FONT = FontDesc("andy", 12)


class GraphicsState:
    """The drawable's "small graphics state" from the paper."""

    __slots__ = ("current_point", "font", "color", "transfer_mode", "line_width")

    def __init__(self) -> None:
        self.current_point = Point(0, 0)
        self.font = DEFAULT_FONT
        self.color = BLACK
        self.transfer_mode = TransferMode.COPY
        self.line_width = 1

    def clone(self) -> "GraphicsState":
        state = GraphicsState()
        state.current_point = self.current_point
        state.font = self.font
        state.color = self.color
        state.transfer_mode = self.transfer_mode
        state.line_width = self.line_width
        return state


class Graphic:
    """Abstract drawable; backends provide the ``device_*`` primitives.

    Local coordinates start at ``(0, 0)`` in the drawable's upper-left
    corner; ``origin`` maps local to device coordinates, and ``clip``
    (device coordinates) bounds every device write.  All the clipping
    and translation happens here, so device primitives may assume their
    arguments are in-bounds device coordinates.

    A drawable may carry a :class:`~repro.graphics.batch.CommandBuffer`
    (``_buffer``, attached by a remote raster window, which needs its
    frames as data): the ``_emit_*`` dispatchers below run each device
    primitive at once and then log the op into it.  Child drawables
    share the parent's buffer — the whole window logs into one op
    stream, in drawing order.
    """

    #: Attached op log; ``None`` means nothing is logged.
    _buffer = None

    def __init__(self, origin: Point = Point(0, 0), clip: Optional[Rect] = None):
        self.origin = origin
        w, h = self.device_size()
        device_bounds = Rect(0, 0, w, h)
        self.clip = device_bounds if clip is None else clip.intersection(device_bounds)
        self.state = GraphicsState()

    # ------------------------------------------------------------------
    # Device primitives: backends must implement these five.
    # ------------------------------------------------------------------

    def device_size(self) -> Tuple[int, int]:
        """Total device extent in device units (pixels or cells)."""
        raise NotImplementedError

    def device_fill_rect(self, rect: Rect, value: int) -> None:
        """Fill ``rect`` with ink (1), background (0) or inversion (-1)."""
        raise NotImplementedError

    def device_set_pixel(self, x: int, y: int, value: int) -> None:
        """Write one device unit; ``value`` as for fill."""
        raise NotImplementedError

    def device_draw_text(self, x: int, y: int, text: str, font: FontDesc) -> None:
        """Draw ``text`` with its top-left corner at ``(x, y)``."""
        raise NotImplementedError

    def font_metrics(self, desc: FontDesc) -> FontMetrics:
        """Measure ``desc`` on this medium."""
        raise NotImplementedError

    # Optional fast paths; default to the generic primitives.

    def device_hline(self, x0: int, x1: int, y: int, value: int) -> None:
        self.device_fill_rect(Rect(min(x0, x1), y, abs(x1 - x0) + 1, 1), value)

    def device_vline(self, x: int, y0: int, y1: int, value: int) -> None:
        self.device_fill_rect(Rect(x, min(y0, y1), 1, abs(y1 - y0) + 1), value)

    def device_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        for by in range(bitmap.height):
            for bx in range(bitmap.width):
                if bitmap.get(bx, by):
                    self.device_set_pixel(x + bx, y + by, 1)

    #: True on backends whose surface supports a same-surface region
    #: copy (:meth:`device_copy_area`); scroll shift-blit keys off it.
    can_copy_area = False

    def device_copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        """Copy ``rect`` (device coords) to ``rect.offset(dx, dy)`` on
        the same surface, overlap-safe.  Optional: only backends that
        declare :attr:`can_copy_area` implement it."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Op dispatch: hit the device, then log the op if a buffer is
    # attached.  Every drawing operation below funnels device work
    # through these, so logging needs no cooperation from individual
    # ops — and logs each request once, even where a device primitive
    # falls back to another (``device_hline`` -> ``device_fill_rect``).
    # ------------------------------------------------------------------

    def _emit_fill_rect(self, rect: Rect, value: int) -> None:
        if faultinject.enabled:
            faultinject.maybe_raise("wm.device")
        self.device_fill_rect(rect, value)
        if self._buffer is not None:
            self._buffer.record_fill(rect, value)

    def _emit_hline(self, x0: int, x1: int, y: int, value: int) -> None:
        self.device_hline(x0, x1, y, value)
        if self._buffer is not None:
            self._buffer.record_hline(x0, x1, y, value)

    def _emit_vline(self, x: int, y0: int, y1: int, value: int) -> None:
        self.device_vline(x, y0, y1, value)
        if self._buffer is not None:
            self._buffer.record_vline(x, y0, y1, value)

    def _emit_pixel(self, x: int, y: int, value: int) -> None:
        self.device_set_pixel(x, y, value)
        if self._buffer is not None:
            self._buffer.record_pixel(x, y, value)

    def _emit_text(self, x: int, y: int, text: str, font: FontDesc) -> None:
        if faultinject.enabled:
            faultinject.maybe_raise("wm.device")
        self.device_draw_text(x, y, text, font)
        if self._buffer is not None:
            # The device crops clip-split glyphs, so the op must carry
            # the clip it was drawn under.
            self._buffer.record_text(x, y, text, font, self.clip)

    def _emit_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        self.device_blit(bitmap, x, y)
        if self._buffer is not None:
            self._buffer.record_blit(bitmap, x, y)

    def copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        """Shift the pixels of ``rect`` (local coords) by ``(dx, dy)``
        on the same surface.

        Both the source and the destination are restricted to ``rect``
        *and* the clip: a scroll of an area must never write outside
        that area (the rows uncovered by the move are damage, not copy
        targets), and pixels outside the clip are neither read nor
        written, so a shift can never smear another view's ink into
        this one.  A no-op when the backend lacks
        :attr:`can_copy_area` support or nothing survives clipping.
        """
        if (dx == 0 and dy == 0) or not self.can_copy_area:
            return
        device = self.rect_to_device(rect)
        src = device.intersection(device.offset(-dx, -dy))
        src = src.intersection(self.clip)
        src = src.intersection(self.clip.offset(-dx, -dy))
        if src.is_empty():
            return
        self._emit_copy_area(src, dx, dy)

    def _emit_copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        if faultinject.enabled:
            faultinject.maybe_raise("wm.device")
        self.device_copy_area(rect, dx, dy)
        if self._buffer is not None:
            self._buffer.record_copy_area(rect, dx, dy)

    # ------------------------------------------------------------------
    # Coordinate system & clipping
    # ------------------------------------------------------------------

    @property
    def bounds(self) -> Rect:
        """This drawable's extent, in local coordinates."""
        return self.clip.offset(-self.origin.x, -self.origin.y)

    @property
    def width(self) -> int:
        return self.clip.width

    @property
    def height(self) -> int:
        return self.clip.height

    def to_device(self, point: Point) -> Point:
        return point.offset(self.origin.x, self.origin.y)

    def rect_to_device(self, rect: Rect) -> Rect:
        return rect.offset(self.origin.x, self.origin.y)

    def child(self, rect: Rect) -> "Graphic":
        """A drawable for ``rect`` (local coords) of this drawable.

        The child shares the device; its origin is shifted and its clip
        is the intersection of ``rect`` with this clip, so a child can
        never draw outside the space its parent allocated — the visual
        containment invariant of the view tree (§3).
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.origin = self.to_device(rect.origin)
        clone.clip = self.clip.intersection(self.rect_to_device(rect))
        clone.state = self.state.clone()
        return clone

    def _ink(self) -> int:
        mode = self.state.transfer_mode
        if mode == TransferMode.INVERT:
            return -1
        if mode == TransferMode.WHITE:
            return 0
        if mode == TransferMode.BLACK:
            return 1
        return self.state.color.bit()

    # ------------------------------------------------------------------
    # Graphics state
    # ------------------------------------------------------------------

    def set_font(self, font: FontDesc) -> None:
        self.state.font = font

    def set_color(self, color: Color) -> None:
        self.state.color = color

    def set_transfer_mode(self, mode: TransferMode) -> None:
        self.state.transfer_mode = mode

    def set_line_width(self, width: int) -> None:
        self.state.line_width = max(1, int(width))

    def move_to(self, x: int, y: int) -> None:
        """Set the current point (local coordinates)."""
        self.state.current_point = Point(x, y)

    # ------------------------------------------------------------------
    # Drawing operations (all take local coordinates)
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Erase the whole drawable to background."""
        if not self.clip.is_empty():
            self._emit_fill_rect(self.clip, 0)

    def fill_rect(self, rect: Rect, value: Optional[int] = None) -> None:
        device = self.rect_to_device(rect).intersection(self.clip)
        if not device.is_empty():
            self._emit_fill_rect(device, self._ink() if value is None else value)

    def erase_rect(self, rect: Rect) -> None:
        self.fill_rect(rect, 0)

    def invert_rect(self, rect: Rect) -> None:
        """Flip a rectangle — the classic selection-highlight op."""
        self.fill_rect(rect, -1)

    def draw_rect(self, rect: Rect) -> None:
        """Outline ``rect`` (its border lies inside the rect)."""
        if rect.width <= 0 or rect.height <= 0:
            return
        self.draw_hline(rect.left, rect.right - 1, rect.top)
        self.draw_hline(rect.left, rect.right - 1, rect.bottom - 1)
        if rect.height > 2:
            self.draw_vline(rect.left, rect.top + 1, rect.bottom - 2)
            self.draw_vline(rect.right - 1, rect.top + 1, rect.bottom - 2)

    def draw_hline(self, x0: int, x1: int, y: int) -> None:
        device_y = y + self.origin.y
        if not (self.clip.top <= device_y < self.clip.bottom):
            return
        left = max(min(x0, x1) + self.origin.x, self.clip.left)
        right = min(max(x0, x1) + self.origin.x, self.clip.right - 1)
        if left <= right:
            self._emit_hline(left, right, device_y, self._ink())

    def draw_vline(self, x: int, y0: int, y1: int) -> None:
        device_x = x + self.origin.x
        if not (self.clip.left <= device_x < self.clip.right):
            return
        top = max(min(y0, y1) + self.origin.y, self.clip.top)
        bottom = min(max(y0, y1) + self.origin.y, self.clip.bottom - 1)
        if top <= bottom:
            self._emit_vline(device_x, top, bottom, self._ink())

    def draw_line(self, x0: int, y0: int, x1: int, y1: int) -> None:
        """Draw a line segment; axis-aligned cases take the fast path."""
        if y0 == y1:
            self.draw_hline(x0, x1, y0)
        elif x0 == x1:
            self.draw_vline(x0, y0, y1)
        else:
            self._bresenham(x0, y0, x1, y1)
        self.state.current_point = Point(x1, y1)

    def line_to(self, x: int, y: int) -> None:
        """Draw from the current point, leaving the pen at ``(x, y)``."""
        start = self.state.current_point
        self.draw_line(start.x, start.y, x, y)

    def _bresenham(self, x0: int, y0: int, x1: int, y1: int) -> None:
        ink = self._ink()
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        x, y = x0, y0
        while True:
            device = Point(x + self.origin.x, y + self.origin.y)
            if self.clip.contains_point(device):
                self._emit_pixel(device.x, device.y, ink)
            if x == x1 and y == y1:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy

    def draw_polyline(self, points: List[Point], closed: bool = False) -> None:
        if len(points) < 2:
            return
        for a, b in zip(points, points[1:]):
            self.draw_line(a.x, a.y, b.x, b.y)
        if closed:
            self.draw_line(points[-1].x, points[-1].y, points[0].x, points[0].y)

    def draw_ellipse(self, rect: Rect) -> None:
        """Outline the ellipse inscribed in ``rect`` (midpoint walk)."""
        if rect.width <= 0 or rect.height <= 0:
            return
        # Semi-axes chosen so the ellipse is inscribed: the extreme
        # pixels land on the rect's inclusive edges, never outside.
        a = max((rect.width - 1) / 2, 0.5)
        b = max((rect.height - 1) / 2, 0.5)
        cx = rect.left + (rect.width - 1) / 2
        cy = rect.top + (rect.height - 1) / 2
        ink = self._ink()
        # Parametric walk dense enough to leave no gaps at these sizes.
        steps = max(8, int(4 * (a + b)))
        prev = None
        for i in range(steps + 1):
            theta = 2 * math.pi * i / steps
            x = round(cx + a * math.cos(theta))
            y = round(cy + b * math.sin(theta))
            if (x, y) != prev:
                device = Point(x + self.origin.x, y + self.origin.y)
                if self.clip.contains_point(device):
                    self._emit_pixel(device.x, device.y, ink)
                prev = (x, y)

    def draw_string(self, x: int, y: int, text: str) -> None:
        """Draw ``text`` with its top-left at ``(x, y)`` in the current font.

        A glyph draws whenever its box *intersects* the clip; glyphs
        wholly outside are dropped here and the device crops any glyph
        the clip edge splits.  A damage rect that splits a text line
        (or a glyph column) therefore still repairs exactly its share
        of the pixels — required for partial-expose repaints to be
        idempotent.  On cell devices a clip cannot split the one-cell
        glyphs, so this degenerates to whole-glyph clipping there.
        """
        if not text:
            return
        metrics = self.font_metrics(self.state.font)
        clip = self.clip
        device_y = y + self.origin.y
        if device_y >= clip.bottom or device_y + metrics.height <= clip.top:
            return
        device_x = x + self.origin.x
        width = metrics.char_width
        if width > 0 and "\t" not in text:
            # Fixed advance: each clip edge is one division.  Glyphs
            # wholly left of the clip are dropped; glyphs starting left
            # of its right edge are kept.
            start = min(len(text), max(0, (clip.left - device_x) // width))
            device_x += start * width
            stop = min(len(text), start - (device_x - clip.right) // width)
        else:
            start = 0
            while start < len(text):
                advance = width * (4 if text[start] == "\t" else 1)
                if device_x + advance > clip.left:
                    break
                device_x += advance
                start += 1
            stop, run_x = start, device_x
            while stop < len(text) and run_x < clip.right:
                run_x += width * (4 if text[stop] == "\t" else 1)
                stop += 1
        if stop > start:
            self._emit_text(device_x, device_y, text[start:stop],
                            self.state.font)

    def draw_string_centered(self, rect: Rect, text: str) -> None:
        """Draw ``text`` centered inside ``rect``."""
        metrics = self.font_metrics(self.state.font)
        x = rect.left + max(0, (rect.width - metrics.string_width(text)) // 2)
        y = rect.top + max(0, (rect.height - metrics.height) // 2)
        self.draw_string(x, y, text)

    def string_width(self, text: str) -> int:
        return self.font_metrics(self.state.font).string_width(text)

    def line_height(self) -> int:
        return self.font_metrics(self.state.font).height

    def draw_bitmap(self, bitmap: Bitmap, x: int, y: int) -> None:
        """Paint the ink pixels of ``bitmap`` at local ``(x, y)``.

        The generic implementation clips pixel-by-pixel; backends with a
        rectangular framebuffer override :meth:`device_blit` for speed.
        """
        device = self.rect_to_device(Rect(x, y, bitmap.width, bitmap.height))
        visible = device.intersection(self.clip)
        if visible.is_empty():
            return
        if visible == device:
            self._emit_blit(bitmap, device.left, device.top)
        else:
            cropped = bitmap.crop(visible.offset(-device.left, -device.top))
            self._emit_blit(cropped, visible.left, visible.top)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} origin={tuple(self.origin)} "
            f"clip={tuple(self.clip)}>"
        )
