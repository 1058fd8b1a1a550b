"""Recorded drawable command buffers (remote recording).

The paper's drawable (§4) hides the window system behind device
primitives.  A local window executes each primitive at once; only the
remote port (paper §8, :mod:`repro.remote`) needs the primitives as
data.  Its windows attach a :class:`CommandBuffer` to every drawable
they hand out: device operations are *recorded* instead of executed,
and :meth:`CommandBuffer.flush` replays them against the local replica
in one pass and keeps them for the wire encoder.

Ops are immutable tuples laid out by :data:`SCHEMA`, one tuple per
device request, nothing merged.  The recorded op list *is* the wire op
list: :mod:`repro.remote.wire` serializes it as is, with no
translation step.  :func:`apply_op` is the one executor of the seven
device op kinds; this module's flush replay, the remote encoder's
shadow and the remote renderer all go through it.  Replay preserves
recording order, so a recorded frame is cell/pixel-identical to
immediate drawing — proven by ``tests/conformance/test_remote.py``.

Ordering rules the rest of the stack honours:

* offscreen surfaces are exempt (their graphics never carry
  a buffer), and ``OffscreenWindow.copy_to`` settles the target before
  blitting, so blits always see settled pixels;
* the window's ``flush``/``snapshot_lines``/``pending_events`` drain
  the buffer before anything observes the surface;
* a remote window's ``resize`` discards pending ops — the surface they
  were recorded against is gone and a full expose is queued.

Telemetry (gated on ``ANDREW_METRICS``): ``wm.requests_batched`` ops
recorded instead of issued, ``wm.batch_flushes`` /
``wm.batch_ops_replayed`` replay passes and the ``wm.batch_flush_ns``
flush-latency timer.
"""

from __future__ import annotations

import functools
import time
from typing import List

from .. import obs
from .fontdesc import FontDesc
from .geometry import Rect
from .image import Bitmap

__all__ = ["enabled", "CommandBuffer", "SCHEMA", "apply_op"]

#: Local windows never record: they draw immediately.  Kept as a
#: constant for callers that report the drawing configuration.
enabled = False


#: The op schema: kind -> operand names.  An op is the immutable tuple
#: ``(kind, *operands)``, the same tuple :mod:`repro.remote.wire`
#: serializes, so a recorded frame needs no translation to ship.
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
    """Execute one device op against ``graphic``'s device primitives.

    Text replays under its recorded clip: the device crops clip-split
    glyphs (tabs on the cell device, partial glyph columns on the
    raster), so replay must crop exactly as immediate execution would.
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
    """A remote window's recorded op list, drained by ``flush``.

    ``flush`` replays the pending ops against the window's replica and
    appends them to :attr:`frame`; the window ships ``frame`` to its
    viewers at the end of the frame.  A flush can also run mid-frame
    (an offscreen ``copy_to`` settles the window before writing into
    it), so ``frame`` holds every op the frame executed, in order.
    """

    def __init__(self, window) -> None:
        self._window = window
        self._ops: List[tuple] = []
        #: Ops replayed since the window last shipped (see :meth:`take`).
        self.frame: List[tuple] = []
        # Content intern of blit bitmaps for the current frame: one
        # shared (width, height, pixel bytes) key per distinct content.
        # Cleared whenever the op list drains (flush/discard).
        self._blit_cache: dict = {}

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def pending(self) -> int:
        """Recorded ops not yet replayed against the device."""
        return len(self._ops)

    # -- recording -----------------------------------------------------

    def _note_recorded(self) -> None:
        if obs.metrics_on:
            obs.registry.inc("wm.requests_batched")

    def record_fill(self, rect: Rect, value: int) -> None:
        self._note_recorded()
        self._ops.append(("fill", rect.left, rect.top, rect.width,
                          rect.height, value))

    def record_hline(self, x0: int, x1: int, y: int, value: int) -> None:
        self._note_recorded()
        self._ops.append(("hline", x0, x1, y, value))

    def record_vline(self, x: int, y0: int, y1: int, value: int) -> None:
        self._note_recorded()
        self._ops.append(("vline", x, y0, y1, value))

    def record_text(self, x: int, y: int, text: str, font: FontDesc,
                    clip: Rect) -> None:
        self._note_recorded()
        self._ops.append(("text", x, y, text, font.spec(), clip.left,
                          clip.top, clip.width, clip.height))

    def record_pixel(self, x: int, y: int, value: int) -> None:
        self._note_recorded()
        self._ops.append(("pixel", x, y, value))

    def record_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        self._note_recorded()
        # The op carries the pixels by value: the frame may mutate the
        # source bitmap after this draw (a later event in the same
        # frame) but before replay.  Identical contents within one frame
        # intern to a single key — an animation blitting the same cel N
        # times holds (and the wire encoder ships) the pixels once.
        # Keyed by content, so a source mutated between blits still
        # records its new pixels.
        key = (bitmap.width, bitmap.height, bytes(bitmap._bits))
        snapshot = self._blit_cache.setdefault(key, key)
        if snapshot is not key and obs.metrics_on:
            obs.registry.inc("wm.blit_snapshots_deduped")
        self._ops.append(("blit", snapshot, x, y))

    def record_copy_area(self, rect: Rect, dx: int, dy: int) -> None:
        """A same-surface shift; replay order guarantees it reads the
        pixels earlier ops in this buffer produce."""
        self._note_recorded()
        self._ops.append(("copy", rect.left, rect.top, rect.width,
                          rect.height, dx, dy))

    # -- draining ------------------------------------------------------

    def discard(self) -> None:
        """Drop pending and executed ops (their surface was discarded)."""
        self._ops.clear()
        self.frame = []
        self._blit_cache.clear()

    def take(self) -> List[tuple]:
        """The frame's executed ops, leaving :attr:`frame` empty."""
        frame, self.frame = self.frame, []
        return frame

    def flush(self) -> int:
        """Replay every pending op against the device, in order.

        Each op is one device request.  Returns the number of ops
        replayed.
        """
        ops = self._ops
        if not ops:
            return 0
        self._ops = []
        self._blit_cache.clear()
        self.frame.extend(ops)
        graphic = self._window._raw_graphic()
        metered = obs.metrics_on
        start = time.perf_counter_ns() if metered else 0
        for op in ops:
            apply_op(graphic, op)
        if metered:
            obs.registry.inc("wm.batch_flushes")
            obs.registry.inc("wm.batch_ops_replayed", len(ops))
            obs.registry.observe_ns(
                "wm.batch_flush_ns", time.perf_counter_ns() - start
            )
        return len(ops)

    def __repr__(self) -> str:
        return f"<CommandBuffer {len(self._ops)} pending>"
