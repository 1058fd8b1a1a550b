"""The remote raster port's op log (remote recording).

The paper's drawable (§4) hides the window system behind device
primitives.  Every window executes each primitive at once; only the
remote port (paper §8, :mod:`repro.remote`) also needs the primitives
as data.  Its raster windows attach a :class:`CommandBuffer` to every
drawable they hand out, and each device op is *logged* there right
after it runs, so the local replica is always current and
:attr:`CommandBuffer.frame` is the list of ops executed since the
window last shipped.  A remote ascii window logs nothing: its cell
surface records its frame (:meth:`~repro.wm.ascii_ws.CellSurface.
take_frame`).

Ops are immutable tuples laid out by :data:`SCHEMA`, one tuple per
device request, nothing merged.  The logged op list *is* the wire op
list: :mod:`repro.remote.wire` serializes it as is, with no
translation step.  :func:`apply_op` is the one executor of the seven
device op kinds on the receiving side: the remote encoder's shadow and
the remote renderer both go through it.  Logging preserves drawing
order, so a shipped frame is cell/pixel-identical to the local replica
— proven by ``tests/conformance/test_remote.py``.

Offscreen surfaces never log (their graphics carry no buffer), and a
remote raster window's ``resize`` empties the log: the surface its ops
drew on is gone and a full expose is queued.

Telemetry (gated on ``ANDREW_METRICS``): ``wm.requests_batched`` counts
ops logged for the wire.
"""

from __future__ import annotations

import functools
from typing import List

from .. import obs
from .fontdesc import FontDesc
from .geometry import Rect
from .image import Bitmap

__all__ = ["enabled", "CommandBuffer", "SCHEMA", "apply_op"]

#: Local windows log nothing.  Kept as a constant for callers that
#: report the drawing configuration.
enabled = False


#: The op schema: kind -> operand names.  An op is the immutable tuple
#: ``(kind, *operands)``, the same tuple :mod:`repro.remote.wire`
#: serializes, so a logged frame needs no translation to ship.
#: Rects flatten to ``left, top, width, height``; ``spec`` is the
#: :meth:`FontDesc.spec` string; a blit ``bitmap`` is the content key
#: ``(width, height, pixel_bytes)``.
SCHEMA = {
    "fill": ("left", "top", "width", "height", "value"),
    "hline": ("x0", "x1", "y", "value"),
    "vline": ("x", "y0", "y1", "value"),
    "text": ("x", "y", "text", "spec",
             "clip_left", "clip_top", "clip_width", "clip_height"),
    "pixel": ("x", "y", "value"),
    "blit": ("bitmap", "x", "y"),
    "copy": ("left", "top", "width", "height", "dx", "dy"),
}

# Bounded: on a renderer the specs arrive from the wire.
_font = functools.lru_cache(maxsize=64)(FontDesc.from_spec)


def apply_op(graphic, op: tuple) -> None:
    """Execute one logged device op against ``graphic``'s device
    primitives (the encoder's shadow, a renderer's surface).

    Text applies under its logged clip: the device crops clip-split
    glyphs (tabs on the cell device, partial glyph columns on the
    raster), so a replica must crop exactly as the sender's drawable
    did.
    """
    kind = op[0]
    if kind == "text":
        base_clip = graphic.clip
        graphic.clip = Rect(op[5], op[6], op[7], op[8])
        try:
            graphic.device_draw_text(op[1], op[2], op[3], _font(op[4]))
        finally:
            graphic.clip = base_clip
    elif kind == "fill":
        graphic.device_fill_rect(Rect(op[1], op[2], op[3], op[4]), op[5])
    elif kind == "hline":
        graphic.device_hline(op[1], op[2], op[3], op[4])
    elif kind == "vline":
        graphic.device_vline(op[1], op[2], op[3], op[4])
    elif kind == "copy":
        graphic.device_copy_area(Rect(op[1], op[2], op[3], op[4]),
                                 op[5], op[6])
    elif kind == "pixel":
        graphic.device_set_pixel(op[1], op[2], op[3])
    elif kind == "blit":
        width, height, bits = op[1]
        bitmap = Bitmap(width, height)
        bitmap._bits[:] = bits
        graphic.device_blit(bitmap, op[2], op[3])
    else:
        raise ValueError(f"unknown device op kind {kind!r}")


class CommandBuffer:
    """A remote raster window's op log: the frame's ops, awaiting
    shipping.

    The drawable runs each device primitive itself and then logs the
    op here (``record_*``), so :attr:`frame` holds every op the frame
    executed, in order; the window ships it with :meth:`take`.
    """

    def __init__(self) -> None:
        #: Ops executed since the window last shipped (see :meth:`take`).
        self.frame: List[tuple] = []
        # Content intern of blit bitmaps for the current frame: one
        # shared (width, height, pixel bytes) key per distinct content.
        # Cleared whenever the frame is taken.
        self._blit_cache: dict = {}

    # -- logging -------------------------------------------------------

    def _note_recorded(self) -> None:
        if obs.metrics_on:
            obs.registry.inc("wm.requests_batched")

    def record_fill(self, rect: Rect, value: int) -> None:
        self._note_recorded()
        self.frame.append(("fill", rect.left, rect.top, rect.width,
                           rect.height, value))

    def record_hline(self, x0: int, x1: int, y: int, value: int) -> None:
        self._note_recorded()
        self.frame.append(("hline", x0, x1, y, value))

    def record_vline(self, x: int, y0: int, y1: int, value: int) -> None:
        self._note_recorded()
        self.frame.append(("vline", x, y0, y1, value))

    def record_text(self, x: int, y: int, text: str, font: FontDesc,
                    clip: Rect) -> None:
        self._note_recorded()
        self.frame.append(("text", x, y, text, font.spec(), clip.left,
                           clip.top, clip.width, clip.height))

    def record_pixel(self, x: int, y: int, value: int) -> None:
        self._note_recorded()
        self.frame.append(("pixel", x, y, value))

    def record_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        self._note_recorded()
        # The op carries the pixels by value: the frame may mutate the
        # source bitmap after this draw (a later event in the same
        # frame) but before the frame ships.  Identical contents within
        # one frame intern to a single key — an animation blitting the
        # same cel N times holds (and the wire encoder ships) the pixels
        # once.  Keyed by content, so a source mutated between blits
        # still logs its new pixels.
        key = (bitmap.width, bitmap.height, bytes(bitmap._bits))
        snapshot = self._blit_cache.setdefault(key, key)
        if snapshot is not key and obs.metrics_on:
            obs.registry.inc("wm.blit_snapshots_deduped")
        self.frame.append(("blit", snapshot, x, y))

    def record_copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        """A same-surface shift; log order guarantees a replica applies
        it to the pixels earlier ops in this frame produced."""
        self._note_recorded()
        self.frame.append(("copy", rect.left, rect.top, rect.width,
                           rect.height, dx, dy))

    # -- shipping ------------------------------------------------------

    def take(self) -> List[tuple]:
        """The frame's executed ops, leaving :attr:`frame` empty."""
        frame, self.frame = self.frame, []
        self._blit_cache.clear()
        return frame

    def flush(self) -> int:
        """Nothing to drain: ops execute as they are logged.

        Kept in the class body, returning 0 ops replayed, because the
        perfbench tracer wraps it by name (``batch.flush``).
        """
        return 0

    def __repr__(self) -> str:
        return f"<CommandBuffer {len(self.frame)} logged>"
