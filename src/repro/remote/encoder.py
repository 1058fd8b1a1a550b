"""Frame encoding: logged ops -> wire frames, with delta compression.

The encoder consumes the :class:`CommandBuffer` op list at flush — the
ops the frame already executed on the window's replica, in order (GUI
Easy's render-path discipline: no encoder state inside stateful draw
code) — and emits at most one wire frame per window flush.

The correctness anchor is the **shadow surface**: an exact replica of
the renderer's surface, maintained by applying every emitted frame's
ops through the *same* :func:`repro.graphics.batch.apply_op` the
client's :class:`~repro.remote.renderer.Applier` uses.  After
predicting, the encoder diffs shadow vs the window's actual surface
and appends repair ops for anything the op list missed — an
``OffscreenWindow.copy_to`` (how ``AnimationView`` shows its
pre-composed frames) writes window surfaces directly without
logging, so prediction alone can't be complete.
With repairs, byte-identity is unconditional.

Frame shapes per mode:

* **keyframe** — the whole surface as one ``grid`` (ascii) or
  ``snapshot`` (raster) op; emitted on the first frame, on resize, on
  :meth:`FrameEncoder.request_keyframe` (late-joining viewer), and
  every ``keyframe_interval`` sent frames so a lossy transport
  resynchronizes without a back-channel.
* **delta, ascii** — scroll ``copy`` ops ship verbatim (a cell diff
  would re-send every shifted row), then ``cells`` runs carry exactly
  the cells that differ from the post-scroll shadow — the terminal
  emits only changed cells.
* **delta, raster** — :func:`delta_compress` elides runs of ops
  unchanged from the previous frame into ``("ref", start, count)``
  tuples, then ``rowbits`` spans repair prediction gaps.

Unchanged frames (surface identical to shadow, no keyframe due) encode
to nothing at all: ``encode`` returns ``None`` and the sequence number
does not advance — essential because event polling flushes constantly.

For resumable connections the encoder also keeps a bounded **frame
history** (the last ``resume_window`` encoded frames, verbatim).  A
renderer rejoining with *last applied seq N* gets exactly the frames
it missed replayed from history (:meth:`FrameEncoder.resume_frames`)
— byte-identical to having never disconnected — or ``None`` when the
gap fell out of the window, in which case the caller falls back to
:meth:`FrameEncoder.request_keyframe`.
"""

from __future__ import annotations

import collections
from typing import Deque, List, Optional, Tuple

from .. import obs
from ..graphics.batch import apply_op
from . import wire
from .renderer import Applier
from .wire import Frame

__all__ = ["delta_compress", "diff_cells", "diff_rowbits", "FrameEncoder"]


_MAX_CANDIDATES = 8


def delta_compress(ops: List[tuple],
                   prev_ops: List[tuple]) -> Tuple[List[tuple], int]:
    """Elide runs of ops repeated from the previous frame.

    Greedy longest-run: each op indexes its positions in ``prev_ops``
    (first ``_MAX_CANDIDATES`` occurrences) and the longest contiguous
    match wins, emitted as ``("ref", start, count)``.  Returns
    ``(compressed_ops, ops_elided)``.
    """
    if not prev_ops:
        return list(ops), 0
    index: dict = {}
    for pos, op in enumerate(prev_ops):
        slots = index.setdefault(op, [])
        if len(slots) < _MAX_CANDIDATES:
            slots.append(pos)
    out: List[tuple] = []
    elided = 0
    i = 0
    n, m = len(ops), len(prev_ops)
    while i < n:
        best_start, best_len = -1, 0
        for start in index.get(ops[i], ()):
            length = 0
            while (i + length < n and start + length < m
                   and ops[i + length] == prev_ops[start + length]):
                length += 1
            if length > best_len:
                best_start, best_len = start, length
        if best_len > 0:
            out.append(("ref", best_start, best_len))
            elided += best_len
            i += best_len
        else:
            out.append(ops[i])
            i += 1
    return out, elided


def diff_cells(old, new, max_gap: int = 4) -> Tuple[List[tuple], int]:
    """Changed-cell runs between two equally sized ``CellSurface``s.

    Rows whose chars and attributes compare equal as slices (one C-level
    compare each) are skipped; only the rows that differ get the
    per-cell scan.  Per row, changed cells group into runs; gaps of up
    to ``max_gap`` unchanged cells merge into the surrounding run
    (re-sending a few identical cells is cheaper than another op
    header).  Returns ``(cells_ops, changed_cell_count)``.
    """
    ops: List[tuple] = []
    changed = 0
    width = new.width
    old_chars, old_inverse, old_bold = old._chars, old._inverse, old._bold
    new_chars, new_inverse, new_bold = new._chars, new._inverse, new._bold
    for y in range(new.height):
        base = y * width
        end = base + width
        if (old_chars[base:end] == new_chars[base:end]
                and old_inverse[base:end] == new_inverse[base:end]
                and old_bold[base:end] == new_bold[base:end]):
            continue
        row_changed = [
            x for x in range(width)
            if (old_chars[base + x] != new_chars[base + x]
                or old_inverse[base + x] != new_inverse[base + x]
                or old_bold[base + x] != new_bold[base + x])
        ]
        changed += len(row_changed)
        run_start = prev = row_changed[0]
        runs = []
        for x in row_changed[1:]:
            if x - prev > max_gap + 1:
                runs.append((run_start, prev))
                run_start = x
            prev = x
        runs.append((run_start, prev))
        for x0, x1 in runs:
            chars = "".join(new_chars[base + x0:base + x1 + 1])
            inverse = wire.pack_bits(new_inverse[base + x0:base + x1 + 1])
            bold = wire.pack_bits(new_bold[base + x0:base + x1 + 1])
            ops.append(("cells", y, x0, chars, inverse, bold))
    return ops, changed


def diff_rowbits(old, new) -> List[tuple]:
    """Changed-row spans between two equally sized ``Bitmap``s.

    One ``rowbits`` op per changed row, spanning the first through last
    differing pixel.
    """
    ops: List[tuple] = []
    width = new.width
    for y in range(new.height):
        base = y * width
        old_row = old._bits[base:base + width]
        new_row = new._bits[base:base + width]
        if old_row == new_row:
            continue
        x0 = next(x for x in range(width) if old_row[x] != new_row[x])
        x1 = next(x for x in range(width - 1, -1, -1)
                  if old_row[x] != new_row[x])
        count = x1 - x0 + 1
        ops.append(("rowbits", y, x0, count,
                    wire.pack_bits(new_row[x0:x1 + 1])))
    return ops


class FrameEncoder:
    """Per-window frame producer with shadow-diff repair.

    ``encode(wire_ops, surface)`` is called once per window flush with
    that flush's logged op list and the window's surface; it returns
    the encoded frame bytes, or ``None`` when nothing visible changed
    and no keyframe is due.
    """

    #: Encoded frames retained for seq-based resume.  Small on purpose:
    #: a rejoiner further behind than this gets a keyframe instead.
    DEFAULT_RESUME_WINDOW = 32

    def __init__(self, target: str, width: int, height: int, *,
                 keyframe_interval: int = 64,
                 resume_window: int = DEFAULT_RESUME_WINDOW) -> None:
        if target not in wire.TARGETS:
            raise ValueError(f"unknown target {target!r}")
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        self.target = target
        self.keyframe_interval = keyframe_interval
        self.frames_sent = 0
        self.keyframes_sent = 0
        self.bytes_sent = 0
        self.ops_elided = 0
        self.cell_diff_cells = 0
        self._seq = 0
        self._since_keyframe = 0
        self._prev_ops: List[tuple] = []
        #: (seq, encoded bytes) of the most recent frames, oldest first.
        self._history: Deque[Tuple[int, bytes]] = collections.deque(
            maxlen=max(0, resume_window))
        self.resize(width, height)

    # -- keyframe control ------------------------------------------------

    def request_keyframe(self) -> None:
        """Force the next frame to be a keyframe (late-joining viewer)."""
        self._force_keyframe = True

    def stretch_keyframes(self, factor: int) -> None:
        """Degraded mode: multiply the keyframe interval (idempotent).

        Keyframes are the bursty bytes; a loaded server stretches them
        to shed bandwidth before any input is refused.  The base
        interval is remembered so :meth:`restore_keyframes` snaps back.
        """
        if getattr(self, "_base_keyframe_interval", None) is None:
            self._base_keyframe_interval = self.keyframe_interval
        self.keyframe_interval = max(
            1, self._base_keyframe_interval * max(1, factor))

    def restore_keyframes(self) -> None:
        """Leave degraded mode: restore the configured keyframe interval."""
        base = getattr(self, "_base_keyframe_interval", None)
        if base is not None:
            self.keyframe_interval = base
            self._base_keyframe_interval = None

    # -- seq-based resume ------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Seq of the most recently sent frame (-1 before the first)."""
        return self._seq - 1

    def resume_frames(self, last_seq: int) -> Optional[List[bytes]]:
        """The verbatim frames a rejoiner missed after ``last_seq``.

        Returns ``[]`` when the renderer is already current, the missed
        frames oldest-first when they are still in the history window,
        or ``None`` when the gap is unservable (too old, or a fresh
        renderer) — the caller then falls back to a keyframe.
        """
        if last_seq >= self.last_seq:
            return []
        if last_seq < 0 or not self._history \
                or self._history[0][0] > last_seq + 1:
            return None
        return [data for seq, data in self._history if seq > last_seq]

    def resize(self, width: int, height: int) -> None:
        """The window resized: new shadow, keyframe next."""
        self.width = width
        self.height = height
        replica = Applier(self.target, width, height)
        self._shadow, self._shadow_graphic = replica.surface, replica.graphic
        self._force_keyframe = True

    # -- shadow plumbing -------------------------------------------------

    def _sync_shadow(self, surface) -> None:
        shadow = self._shadow
        if self.target == "ascii":
            shadow._chars[:] = surface._chars
            shadow._inverse[:] = surface._inverse
            shadow._bold[:] = surface._bold
        else:
            shadow._bits[:] = surface._bits

    def _keyframe_ops(self, surface) -> List[tuple]:
        if self.target == "ascii":
            return [("grid", "".join(surface._chars),
                     wire.pack_bits(surface._inverse),
                     wire.pack_bits(surface._bold))]
        return [("snapshot",
                 (surface.width, surface.height, bytes(surface._bits)))]

    # -- encoding --------------------------------------------------------

    def encode(self, wire_ops: List[tuple], surface) -> Optional[bytes]:
        keyframe = (self._force_keyframe
                    or self._since_keyframe >= self.keyframe_interval)
        if keyframe:
            out_ops = self._keyframe_ops(surface)
            elided = diffed = 0
        else:
            out_ops, elided, diffed = self._delta_ops(wire_ops, surface)
            if not out_ops:
                return None  # nothing visible changed

        frame = Frame(keyframe=keyframe, seq=self._seq, target=self.target,
                      width=self.width, height=self.height, ops=out_ops)
        data = wire.encode_frame(frame)
        self._history.append((frame.seq, data))
        self._seq += 1
        self._sync_shadow(surface)
        # What the renderer will hold as "previous ops" for refs.
        self._prev_ops = (list(out_ops) if keyframe
                          else wire.expand_refs(out_ops, self._prev_ops))
        if keyframe:
            self._force_keyframe = False
            self._since_keyframe = 0
            self.keyframes_sent += 1
        else:
            self._since_keyframe += 1
        self.frames_sent += 1
        self.bytes_sent += len(data)
        self.ops_elided += elided
        self.cell_diff_cells += diffed
        if obs.metrics_on:
            obs.registry.inc("remote.frames_sent")
            if keyframe:
                obs.registry.inc("remote.keyframes_sent")
            obs.registry.inc("remote.bytes_sent", len(data))
            if elided:
                obs.registry.inc("remote.ops_elided", elided)
            if diffed:
                obs.registry.inc("remote.cell_diff_cells", diffed)
        return data

    def _delta_ops(self, wire_ops, surface):
        """Minimal delta frame; empty result means skip the frame."""
        if self.target == "ascii":
            # Scrolls ship verbatim (a cell diff would re-send whole
            # shifted rows); anything after them becomes a cell diff
            # against the post-scroll shadow.  A copy logged *after*
            # a draw can't be split out safely, so that rare shape
            # falls back to a pure cell diff.
            copies: List[tuple] = []
            for op in wire_ops:
                if op[0] != "copy":
                    break
                copies.append(op)
            if any(op[0] == "copy" for op in wire_ops[len(copies):]):
                copies = []
            for op in copies:
                apply_op(self._shadow_graphic, op)
            cells, diffed = diff_cells(self._shadow, surface)
            elided = len(wire_ops) - len(copies)
            return copies + cells, max(0, elided), diffed
        compressed, elided = delta_compress(wire_ops, self._prev_ops)
        for op in wire_ops:
            apply_op(self._shadow_graphic, op)
        repairs = diff_rowbits(self._shadow, surface)
        return compressed + repairs, elided, 0

    def __repr__(self) -> str:
        return (f"<FrameEncoder {self.target} {self.width}x{self.height} "
                f"sent={self.frames_sent}>")
