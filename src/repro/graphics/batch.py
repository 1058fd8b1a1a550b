"""Batched drawable command buffers (the ``ANDREW_BATCH`` gate).

The paper's drawable (§4) hides the window system behind device
primitives, but each primitive still costs one device request — the
blocker ROADMAP names for a remote/wire backend, where one request is
one round trip.  Behind the process-wide switch below, a
:class:`~repro.wm.base.BackendWindow` attaches a :class:`CommandBuffer`
to every drawable it hands out: device operations are *recorded* as
data instead of executed, and :meth:`CommandBuffer.flush` replays the
whole frame against the device in one pass.  Once drawing is a
replayable op list, a wire protocol is serialization.

Ops are immutable tuples laid out by :data:`SCHEMA`.  The recorded op
list *is* the wire op list: :mod:`repro.remote.wire` serializes it as
is, with no translation step.  :func:`apply_op` is the one executor of
the seven device op kinds; this module's flush replay, the remote
encoder's shadow and the remote renderer all go through it.

Recording coalesces *runs* — consecutive compatible operations — into
single device requests:

* abutting ``fill_rect`` ops with the same value merge into one rect
  (abutting means edge-sharing and disjoint, so inversion fills are
  safe to merge too);
* consecutive ``draw_text`` ops on the same baseline, font and clip
  whose spans abut concatenate into one string (the big win: text
  views draw glyph by glyph);
* ``hline``/``vline`` spans on the same row/column union when
  contiguous (ink/background spans may overlap — both backends are
  idempotent there — inversion spans must exactly abut).

Only consecutive ops merge and replay preserves recording order, so a
batched frame is cell/pixel-identical to an unbatched one — proven
across every gate combination by ``tests/conformance/``.

Ordering rules the rest of the stack honours:

* offscreen/compositor surfaces are exempt (their graphics never carry
  a buffer), and ``OffscreenWindow.copy_to`` settles the target before
  blitting, so blits always see settled pixels;
* ``BackendWindow.flush``/``snapshot_lines``/``pending_events`` drain
  the buffer before anything observes the surface;
* ``BackendWindow.resize`` discards pending ops — the surface they
  were recorded against is gone and a full expose is queued.

Telemetry (gated on ``ANDREW_METRICS``): ``wm.requests_batched`` ops
recorded instead of issued, ``wm.ops_coalesced`` merges,
``wm.batch_flushes`` / ``wm.batch_ops_replayed`` replay passes and the
``wm.batch_flush_ns`` flush-latency timer.
"""

from __future__ import annotations

import functools
import time
from typing import List, Optional

from .. import obs
from ..config import env_flag
from .fontdesc import FontDesc, FontMetrics
from .geometry import Rect
from .image import Bitmap

__all__ = ["BATCH_ENV", "enabled", "batch_enabled", "configure",
           "CommandBuffer", "SCHEMA", "apply_op"]

BATCH_ENV = "ANDREW_BATCH"

#: Hot-path switch.  ``BackendWindow`` reads this module attribute when
#: handing out a drawable: ``if batch.enabled: graphic._buffer = ...``.
enabled: bool = env_flag(BATCH_ENV, False)


def batch_enabled() -> bool:
    return enabled


def configure(on: Optional[bool] = None) -> None:
    """Flip batching at run time (tests, benches, embedding apps).

    ``None`` leaves the switch unchanged.  Turning the switch off does
    not drop pending ops: buffers attached to live drawables keep
    recording and drain at the next flush; newly created drawables
    simply stop attaching one.
    """
    global enabled
    if on is not None:
        enabled = bool(on)


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


def _merge_fill(last: tuple, rect: Rect) -> Optional[tuple]:
    """``last`` grown by ``rect``, or None when the two don't tile.

    Abutting (edge-sharing, disjoint) is required so merging is exact
    for every fill value, inversion included.
    """
    kind, left, top, width, height, value = last
    if top == rect.top and height == rect.height:
        if left + width == rect.left or rect.right == left:
            return (kind, min(left, rect.left), top,
                    width + rect.width, height, value)
    elif left == rect.left and width == rect.width:
        if top + height == rect.top or rect.bottom == top:
            return (kind, left, min(top, rect.top),
                    width, height + rect.height, value)
    return None


class CommandBuffer:
    """The per-window recorded op list, drained by ``flush``."""

    def __init__(self, window) -> None:
        self._window = window
        self._ops: List[tuple] = []
        # Content intern of blit bitmaps for the current frame: one
        # shared (width, height, pixel bytes) key per distinct content.
        # Cleared whenever the op list drains (flush/discard).
        self._blit_cache: dict = {}
        # Text-run cursor: the last recorded text op and the font, clip
        # and end x it was drawn with.  A run extends only while that op
        # is still the last one recorded.
        self._run_op: Optional[tuple] = None
        self._run_font: Optional[FontDesc] = None
        self._run_clip: Optional[Rect] = None
        self._run_end = 0

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

    def _note_coalesced(self) -> None:
        if obs.metrics_on:
            obs.registry.inc("wm.ops_coalesced")

    def record_fill(self, rect: Rect, value: int) -> None:
        self._note_recorded()
        ops = self._ops
        if ops:
            last = ops[-1]
            if last[0] == "fill" and last[5] == value:
                merged = _merge_fill(last, rect)
                if merged is not None:
                    ops[-1] = merged
                    self._note_coalesced()
                    return
        ops.append(("fill", rect.left, rect.top, rect.width, rect.height,
                    value))

    def record_hline(self, x0: int, x1: int, y: int, value: int) -> None:
        self._note_recorded()
        ops = self._ops
        if ops:
            last = ops[-1]
            if last[0] == "hline" and last[3] == y and last[4] == value:
                if self._spans_mergeable(last[1], last[2], x0, x1, value):
                    ops[-1] = ("hline", min(last[1], x0), max(last[2], x1),
                               y, value)
                    self._note_coalesced()
                    return
        ops.append(("hline", x0, x1, y, value))

    def record_vline(self, x: int, y0: int, y1: int, value: int) -> None:
        self._note_recorded()
        ops = self._ops
        if ops:
            last = ops[-1]
            if last[0] == "vline" and last[1] == x and last[4] == value:
                if self._spans_mergeable(last[2], last[3], y0, y1, value):
                    ops[-1] = ("vline", x, min(last[2], y0),
                               max(last[3], y1), value)
                    self._note_coalesced()
                    return
        ops.append(("vline", x, y0, y1, value))

    @staticmethod
    def _spans_mergeable(a0: int, a1: int, b0: int, b1: int,
                         value: int) -> bool:
        """True when [a0,a1] and [b0,b1] union to one contiguous span.

        Ink/background spans may overlap (both backends are idempotent
        per cell); inversion spans toggle, so they must exactly abut.
        """
        if value < 0:
            return b0 == a1 + 1 or b1 == a0 - 1
        return b0 <= a1 + 1 and b1 >= a0 - 1

    def record_text(self, x: int, y: int, text: str, font: FontDesc,
                    clip: Rect, metrics: FontMetrics) -> None:
        self._note_recorded()
        # Advance includes the 4-cell tab expansion both devices apply.
        end_x = x + metrics.char_width * (len(text) + 3 * text.count("\t"))
        ops = self._ops
        if ops:
            last = ops[-1]
            if (last is self._run_op and self._run_end == x
                    and last[2] == y and self._run_font == font
                    and self._run_clip == clip):
                op = last[:3] + (last[3] + text,) + last[4:]
                ops[-1] = self._run_op = op
                self._run_end = end_x
                self._note_coalesced()
                return
        op = ("text", x, y, text, font.spec(),
              clip.left, clip.top, clip.width, clip.height)
        ops.append(op)
        self._run_op = op
        self._run_font = font
        self._run_clip = clip
        self._run_end = end_x

    def record_pixel(self, x: int, y: int, value: int) -> None:
        self._note_recorded()
        self._ops.append(("pixel", x, y, value))

    def record_blit(self, bitmap: Bitmap, x: int, y: int) -> None:
        self._note_recorded()
        # The op carries the pixels by value: the frame may mutate the
        # source bitmap after this draw (a later event in the same
        # batch) but before replay.  Identical contents within one frame
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
        """A same-surface shift.  Never coalesced: the copy reads pixels
        earlier ops in this buffer may still have to produce, and replay
        order alone guarantees it reads them settled."""
        self._note_recorded()
        self._ops.append(("copy", rect.left, rect.top, rect.width,
                          rect.height, dx, dy))

    # -- draining ------------------------------------------------------

    def discard(self) -> None:
        """Drop pending ops (the surface they target was discarded)."""
        self._ops.clear()
        self._blit_cache.clear()

    def flush(self) -> int:
        """Replay every pending op against the device, in order.

        Each coalesced op is one device request.  Returns the number of
        ops replayed.
        """
        ops = self._ops
        if not ops:
            return 0
        self._ops = []
        self._blit_cache.clear()
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
