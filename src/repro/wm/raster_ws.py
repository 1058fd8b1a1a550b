"""The raster window system: a pixel-framebuffer backend.

Plays the role of X.11 in this reproduction: windows are 1-bit pixel
framebuffers, text is rendered through the built-in 5x7 bitmap font, and
every device operation is tallied in a protocol-request counter the way
an X server counts requests.  Running the identical application on this
backend and on :mod:`repro.wm.ascii_ws` without modification is the
paper's section-8 portability claim (experiment E6).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .. import obs
from ..graphics.fontdesc import FontDesc, FontMetrics
from ..graphics.geometry import Point, Rect
from ..graphics.graphic import Graphic
from ..graphics.image import Bitmap
from ..graphics.minifont import GLYPH_HEIGHT, GLYPH_WIDTH, glyph_bitmap
from .base import BackendWindow, OffscreenWindow, WindowSystem

__all__ = ["RasterGraphic", "RasterWindow", "RasterWindowSystem", "font_scale"]


def font_scale(desc: FontDesc) -> int:
    """Integer scale factor realizing a point size on this device.

    Sizes up to ~20pt render at scale 1, then one step per ~14pt, so the
    layout engine sees genuinely different metrics per size — important
    for exercising multi-font text (§2).
    """
    return max(1, round(desc.size / 14))


#: Realized-metrics memo (FontDesc is immutable/hashable); the graphic
#: asks per draw_string, the layout engine per style run.
_METRICS_MEMO: Dict[FontDesc, FontMetrics] = {}


def _metrics_for(desc: FontDesc) -> FontMetrics:
    cached = _METRICS_MEMO.get(desc)
    if cached is not None:
        return cached
    scale = font_scale(desc)
    # +1 column of tracking between glyphs; one scaled row of leading.
    metrics = FontMetrics(
        desc,
        char_width=(GLYPH_WIDTH + 1) * scale,
        ascent=GLYPH_HEIGHT * scale,
        descent=1 * scale,
    )
    _METRICS_MEMO[desc] = metrics
    return metrics


class RequestCounter:
    """Counts 'protocol requests' per operation type, like an X server.

    Unified with the toolkit telemetry registry: each tally also lands
    there as ``wm.raster.<op>`` (plus the ``wm.raster.requests`` total)
    when metrics are enabled, so backend request counts appear in the
    same snapshot as the update/dispatch metrics they explain.
    """

    metric_prefix = "wm.raster."

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def tally(self, op: str) -> None:
        self.counts[op] = self.counts.get(op, 0) + 1
        if obs.metrics_on:
            obs.registry.inc(self.metric_prefix + "requests")
            obs.registry.inc(self.metric_prefix + op)

    def total(self) -> int:
        return sum(self.counts.values())


class RasterGraphic(Graphic):
    """Drawable over a :class:`Bitmap` framebuffer."""

    def __init__(self, framebuffer: Bitmap, requests: RequestCounter,
                 origin: Point = Point(0, 0), clip: Rect = None):
        self._fb = framebuffer
        self._requests = requests
        super().__init__(origin, clip)

    # -- device primitives ---------------------------------------------

    def device_size(self) -> Tuple[int, int]:
        return (self._fb.width, self._fb.height)

    def device_fill_rect(self, rect: Rect, value: int) -> None:
        self._requests.tally("fill_rect")
        if value < 0:
            self._fb.invert_rect(rect)
        else:
            self._fb.fill_rect(rect, value)

    def device_set_pixel(self, x: int, y: int, value: int) -> None:
        self._requests.tally("set_pixel")
        if value < 0:
            self._fb.set_safe(x, y, 0 if self._fb.get_safe(x, y) else 1)
        else:
            self._fb.set_safe(x, y, value)

    def device_draw_text(self, x: int, y: int, text: str, font: FontDesc) -> None:
        self._requests.tally("draw_text")
        scale = font_scale(font)
        advance = (GLYPH_WIDTH + 1) * scale
        col = x
        for char in text:
            if char == "\t":
                col += 4 * advance
                continue
            glyph = glyph_bitmap(char, scale)
            self._blit_glyph(glyph, col, y)
            if font.bold:  # classic poor-man's bold: double-strike, 1px right
                self._blit_glyph(glyph, col + 1, y)
            col += advance

    def _blit_glyph(self, glyph: Bitmap, x: int, y: int) -> None:
        """OR a glyph into the framebuffer, cropped to the clip.

        A damage rect may split a glyph row; only the intersecting
        pixels land, so partial-line repaints are exact and no draw
        escapes the clip.
        """
        rect = Rect(x, y, glyph.width, glyph.height)
        visible = rect.intersection(self.clip)
        if visible.is_empty():
            return
        if visible != rect:
            glyph = glyph.crop(visible.offset(-x, -y))
            x, y = visible.left, visible.top
        self._fb.blit(glyph, x, y, mode="or")

    def device_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        self._requests.tally("blit")
        self._fb.blit(bitmap, x, y, mode="or")

    can_copy_area = True

    def device_copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        self._requests.tally("copy_area")
        fb = self._fb
        rect = rect.intersection(Rect(0, 0, fb.width, fb.height))
        rect = rect.intersection(Rect(-dx, -dy, fb.width, fb.height))
        if rect.is_empty():
            return
        bits, width, span = fb._bits, fb.width, rect.width
        rows = range(rect.top, rect.bottom)
        if dy > 0:  # shifting down: copy bottom-up so sources stay unread
            rows = reversed(rows)
        for y in rows:
            src = y * width + rect.left
            dst = (y + dy) * width + rect.left + dx
            bits[dst:dst + span] = bits[src:src + span]

    def font_metrics(self, desc: FontDesc) -> FontMetrics:
        return _metrics_for(desc)


class RasterOffscreen(OffscreenWindow):
    """Off-screen pixmap for the raster backend."""

    def __init__(self, width: int, height: int, requests: RequestCounter):
        super().__init__(width, height)
        self.bitmap = Bitmap(width, height)
        self._requests = requests

    def graphic(self) -> RasterGraphic:
        return RasterGraphic(self.bitmap, self._requests)

    def _resize_surface(self, width: int, height: int) -> None:
        self.bitmap = Bitmap(width, height)

    def copy_to(self, target: Graphic, x: int, y: int) -> None:
        self.count_blit()
        # The blit writes the framebuffer directly, so any ops a remote
        # window recorded before it must land first.
        target.settle()
        device = target.rect_to_device(Rect(x, y, self.width, self.height))
        visible = device.intersection(target.clip)
        if visible.is_empty():
            return
        if isinstance(target, RasterGraphic):
            # Same-device blit in copy mode (background pixels too), so
            # the transferred rectangle *is* the surface — never wider
            # than the target's clip.
            self._requests.tally("blit")
            source = self.bitmap
            if visible != device:
                source = source.crop(visible.offset(-device.left, -device.top))
            target._fb.blit(source, visible.left, visible.top, mode="copy")
        else:
            target.draw_bitmap(self.bitmap, x, y)


class RasterWindow(BackendWindow):
    """A top-level window backed by a pixel framebuffer."""

    def __init__(self, title: str, width: int, height: int,
                 requests: RequestCounter):
        super().__init__(title, width, height)
        self.framebuffer = Bitmap(width, height)
        self._requests = requests

    def graphic(self) -> RasterGraphic:
        return RasterGraphic(self.framebuffer, self._requests)

    def _resize_surface(self, width: int, height: int) -> None:
        self.framebuffer = Bitmap(width, height)

    def snapshot_lines(self, cell_width: int = 6, cell_height: int = 8) -> List[str]:
        """Downsample the framebuffer to a text grid.

        Each ``cell_width x cell_height`` pixel block becomes one
        character by ink density, so raster snapshots remain printable
        and comparable to ascii snapshots at the block level.
        """
        self.flush()  # settle recorded ops before observing the pixels
        lines = []
        for cy in range(0, self.height, cell_height):
            row = []
            for cx in range(0, self.width, cell_width):
                ink = 0
                total = 0
                for y in range(cy, min(cy + cell_height, self.height)):
                    for x in range(cx, min(cx + cell_width, self.width)):
                        ink += self.framebuffer.get(x, y)
                        total += 1
                density = ink / total if total else 0
                if density == 0:
                    row.append(" ")
                elif density < 0.2:
                    row.append(".")
                elif density < 0.5:
                    row.append("+")
                else:
                    row.append("#")
            lines.append("".join(row))
        return lines


class RasterWindowSystem(WindowSystem):
    """The pixel window system (stands in for X.11)."""

    atk_name = "rasterws"
    name = "raster"

    def __init__(self) -> None:
        super().__init__()
        self.requests = RequestCounter()

    def _make_window(self, title: str, width: int, height: int) -> RasterWindow:
        return RasterWindow(title, width, height, self.requests)

    def create_offscreen(self, width: int, height: int) -> RasterOffscreen:
        return RasterOffscreen(width, height, self.requests)

    def _font_metrics(self, desc: FontDesc) -> FontMetrics:
        return _metrics_for(desc)

    def stats(self) -> Dict[str, int]:
        stats = dict(self.requests.counts)
        stats["windows"] = len(self.windows)
        stats["requests_total"] = self.requests.total()
        return stats
