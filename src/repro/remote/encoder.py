"""Frame encoding: a window's frame record -> wire frames.

The encoder reads what the frame already executed on the window's
replica — a raster window's :class:`CommandBuffer` op list, or an ascii
surface's own record of its copies and written rows
(:meth:`~repro.wm.ascii_ws.CellSurface.take_frame`); no encoder state
lives in draw code (GUI Easy's render-path discipline) — and emits at
most one wire frame per window flush.

The correctness anchor is the **shadow surface**: an exact replica of
the renderer's surface, maintained by applying every emitted frame's
ops through the *same* :func:`repro.graphics.batch.apply_op` the
client's :class:`~repro.remote.renderer.Applier` uses.  After
predicting, the encoder diffs shadow vs the window's actual surface
and appends repair ops for anything the ops missed — an
``OffscreenWindow.copy_to`` (how ``AnimationView`` shows its
pre-composed frames) writes window surfaces directly without
logging, so prediction alone can't be complete.
On the ascii target the diff and the shadow sync cover only the rows
the surface recorded as written, so byte-identity holds as long as
every surface writer marks its rows; keyframes sync the whole surface,
and a window that flushes with no viewer marks every row.

Frame shapes per mode:

* **keyframe** — the whole surface as one ``grid`` (ascii) or
  ``snapshot`` (raster) op; emitted on the first frame, on resize, on
  :meth:`FrameEncoder.request_keyframe` (late-joining viewer), and
  every ``keyframe_interval`` sent frames so a lossy transport
  resynchronizes without a back-channel.
* **delta, ascii** — the recorded scroll ``copy`` ops ship verbatim (a
  cell diff would re-send every shifted row), then ``cells`` runs carry
  exactly the cells of the written rows that differ from the
  post-scroll shadow — the terminal emits only changed cells.
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
from itertools import count
from typing import Deque, List, Optional, Sequence, Tuple

from .. import obs
from ..codepoints import text_of
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


def diff_cells(old, new, max_gap: int = 4,
               rows: Optional[range] = None) -> Tuple[List[tuple], int]:
    """Changed-cell runs between two equally sized ``CellSurface``s.

    Scans ``rows`` (every row by default).  Rows whose chars and
    attributes compare equal as slices (one C-level compare each) are
    skipped; a row that differs gets one ``zip`` pass over its six
    slices.  Per row, changed cells group into runs; gaps of up to
    ``max_gap`` unchanged cells merge into the surrounding run
    (re-sending a few identical cells is cheaper than another op
    header).  Returns ``(cells_ops, changed_cell_count)``.
    """
    ops: List[tuple] = []
    changed = 0
    width = new.width
    old_chars, old_inverse, old_bold = old._chars, old._inverse, old._bold
    new_chars, new_inverse, new_bold = new._chars, new._inverse, new._bold
    for y in range(new.height) if rows is None else rows:
        base = y * width
        end = base + width
        row_chars = new_chars[base:end]
        row_inverse = new_inverse[base:end]
        row_bold = new_bold[base:end]
        was_chars = old_chars[base:end]
        was_inverse = old_inverse[base:end]
        was_bold = old_bold[base:end]
        if (was_chars == row_chars and was_inverse == row_inverse
                and was_bold == row_bold):
            continue
        row_changed = [
            x for x, a, b, c, d, e, f in zip(
                count(), was_chars, row_chars, was_inverse, row_inverse,
                was_bold, row_bold)
            if a != b or c != d or e != f
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
            ops.append(("cells", y, x0, text_of(row_chars, x0, x1 + 1),
                        wire.pack_bits(row_inverse[x0:x1 + 1]),
                        wire.pack_bits(row_bold[x0:x1 + 1])))
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
    the window's surface and, on raster, that flush's logged op list
    (an ascii window passes none: its surface records the frame).  It
    returns the encoded frame bytes, or ``None`` when nothing visible
    changed and no keyframe is due.
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
        #: The configured interval while degraded mode stretches it.
        self._base_keyframe_interval: Optional[int] = None
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
        if self._base_keyframe_interval is None:
            self._base_keyframe_interval = self.keyframe_interval
        self.keyframe_interval = max(
            1, self._base_keyframe_interval * max(1, factor))

    def restore_keyframes(self) -> None:
        """Leave degraded mode: restore the configured keyframe interval."""
        if self._base_keyframe_interval is not None:
            self.keyframe_interval = self._base_keyframe_interval
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

    def _sync_shadow(self, surface, rows: range) -> None:
        shadow = self._shadow
        if self.target == "ascii":
            width = surface.width
            start, stop = rows.start * width, rows.stop * width
            shadow._chars[start:stop] = surface._chars[start:stop]
            shadow._inverse[start:stop] = surface._inverse[start:stop]
            shadow._bold[start:stop] = surface._bold[start:stop]
        else:
            shadow._bits[:] = surface._bits

    def _keyframe_ops(self, surface) -> List[tuple]:
        if self.target == "ascii":
            return [("grid", text_of(surface._chars),
                     wire.pack_bits(surface._inverse),
                     wire.pack_bits(surface._bold))]
        return [("snapshot",
                 (surface.width, surface.height, bytes(surface._bits)))]

    # -- encoding --------------------------------------------------------

    def encode(self, wire_ops: Sequence[tuple], surface) -> Optional[bytes]:
        keyframe = (self._force_keyframe
                    or self._since_keyframe >= self.keyframe_interval)
        # The rows to diff and sync: on ascii, those the surface records
        # as written since the last encode, along with its copies.
        rows = range(self.height)
        if self.target == "ascii":
            wire_ops, written = surface.take_frame()
            if not keyframe:
                rows = written
        if keyframe:
            out_ops = self._keyframe_ops(surface)
            elided = diffed = 0
        else:
            out_ops, elided, diffed = self._delta_ops(wire_ops, surface, rows)
            if not out_ops:
                return None  # nothing visible changed

        frame = Frame(keyframe=keyframe, seq=self._seq, target=self.target,
                      width=self.width, height=self.height, ops=out_ops)
        data = wire.encode_frame(frame)
        self._history.append((frame.seq, data))
        self._seq += 1
        self._sync_shadow(surface, rows)
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

    def _delta_ops(self, wire_ops, surface, rows: range):
        """Minimal delta frame; empty result means skip the frame.

        Returns ``(ops, elided, diffed)``.
        """
        for op in wire_ops:
            apply_op(self._shadow_graphic, op)
        if self.target == "ascii":
            # The copies ship verbatim (a cell diff would re-send whole
            # shifted rows); the written rows become a cell diff against
            # the post-copy shadow.
            cells, diffed = diff_cells(self._shadow, surface, rows=rows)
            return [*wire_ops, *cells], 0, diffed
        compressed, elided = delta_compress(wire_ops, self._prev_ops)
        repairs = diff_rowbits(self._shadow, surface)
        return compressed + repairs, elided, 0

    def __repr__(self) -> str:
        return (f"<FrameEncoder {self.target} {self.width}x{self.height} "
                f"sent={self.frames_sent}>")
