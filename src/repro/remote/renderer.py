"""The dumb remote renderer: decode frames, apply them to a surface.

The renderer owns no toolkit state — no views, no data objects, no
layout.  It holds one replica surface per target (a
:class:`~repro.wm.ascii_ws.CellSurface` or a
:class:`~repro.graphics.image.Bitmap`) and applies decoded ops through
the *same device primitives* the local backends use, through the one
device-op executor :func:`repro.graphics.batch.apply_op`.  That is what
makes byte-identity against a local run checkable, and it is how the
encoder predicts renderer state for its repair diff: both sides apply
ops through an :class:`Applier`.

Stream robustness (:meth:`RemoteRenderer.feed`):

* partial frames buffer until complete;
* corrupt bytes (bad magic, checksum mismatch, truncation mid-stream)
  never raise out of ``feed`` — the renderer scans forward for the next
  frame magic and waits for a keyframe (``resyncs`` counts these);
* a delta frame that is out of sequence, wrongly sized, or arrives
  before any keyframe is skipped (``frames_skipped``) and the renderer
  stays desynchronized until the next keyframe, which always applies.

Run as a module for the two-terminal loopback demo::

    PYTHONPATH=src python -m repro.remote.renderer --listen 7788
"""

from __future__ import annotations

import socket
from typing import List, Optional

from .. import obs
from ..graphics import batch
from ..graphics.image import Bitmap
from ..wm.ascii_ws import AsciiGraphic, CellSurface
from ..wm.raster_ws import RasterGraphic, RequestCounter
from . import wire
from .wire import WireError

__all__ = ["Applier", "RemoteRenderer"]


def _row_span(surface, y: int, x0: int, count: int):
    """``(cells, start, stop)``: the part of a ``count``-long run at
    ``(x0, y)`` that lies on ``surface``, as a slice of its row-major
    cells and the run offsets it holds; None when no part does.

    Ops come off the wire, so a run may lie anywhere: a row off the
    surface is dropped and columns are clipped to ``[0, width)``.
    """
    if not 0 <= y < surface.height:
        return None
    start = max(0, -x0)
    stop = min(count, surface.width - x0)
    if stop <= start:
        return None
    base = y * surface.width + x0
    return slice(base + start, base + stop), start, stop


def _apply_cells(surface: CellSurface, op: tuple) -> None:
    _, y, x0, chars, inverse, bold = op
    inv_bits = wire.unpack_bits(inverse, len(chars))
    bold_bits = wire.unpack_bits(bold, len(chars))
    span = _row_span(surface, y, x0, len(chars))
    if span is not None:
        cells, start, stop = span
        surface._chars[cells] = chars[start:stop]
        surface._inverse[cells] = inv_bits[start:stop]
        surface._bold[cells] = bold_bits[start:stop]


def _apply_grid(surface: CellSurface, op: tuple) -> None:
    _, chars, inverse, bold = op
    size = surface.width * surface.height
    if len(chars) != size:
        raise WireError(
            f"grid of {len(chars)} chars for a {size}-cell surface")
    surface._chars[:] = list(chars)
    surface._inverse[:] = wire.unpack_bits(inverse, size)
    surface._bold[:] = wire.unpack_bits(bold, size)


def _apply_rowbits(fb: Bitmap, op: tuple) -> None:
    _, y, x0, count, packed = op
    span = _row_span(fb, y, x0, count)
    if span is not None:
        cells, start, stop = span
        fb._bits[cells] = wire.unpack_bits(packed, count)[start:stop]


def _apply_snapshot(fb: Bitmap, op: tuple) -> None:
    width, height, bits = op[1]
    if (width, height) != (fb.width, fb.height):
        raise WireError(f"snapshot {width}x{height} for a "
                        f"{fb.width}x{fb.height} framebuffer")
    fb._bits[:] = bits


#: The ops each target applies straight to its surface, beside the
#: device ops of :data:`repro.graphics.batch.SCHEMA`.
_SURFACE_OPS = {
    "ascii": {"cells": _apply_cells, "grid": _apply_grid},
    "raster": {"rowbits": _apply_rowbits, "snapshot": _apply_snapshot},
}


class Applier:
    """A blank replica surface of one target, and the op applier for it.

    Device ops go through :func:`repro.graphics.batch.apply_op` on the
    target's own graphic; the target's surface ops write the surface
    directly.  Any other op is a :class:`WireError`.
    """

    def __init__(self, target: str, width: int, height: int) -> None:
        if target == "ascii":
            self.surface = CellSurface(width, height)
            self.graphic = AsciiGraphic(self.surface)
        elif target == "raster":
            self.surface = Bitmap(width, height)
            self.graphic = RasterGraphic(self.surface, RequestCounter())
        else:
            raise ValueError(f"unknown target {target!r}")
        self.target = target
        self._surface_ops = _SURFACE_OPS[target]

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind in batch.SCHEMA:
            batch.apply_op(self.graphic, op)
            return
        apply = self._surface_ops.get(kind)
        if apply is None:
            raise WireError(
                f"op {kind!r} is not valid on a {self.target} target")
        apply(self.surface, op)


class RemoteRenderer:
    """A stream consumer maintaining a replica of one remote window.

    ``surface`` (ascii) / ``framebuffer`` (raster) expose the replica
    in the same attribute shape as the local backends, so a conformance
    fingerprint reads a renderer exactly like a window.  ``flush`` is a
    no-op for the same reason — the replica is always settled.
    """

    def __init__(self, on_frame=None) -> None:
        self.surface: Optional[CellSurface] = None
        self.framebuffer: Optional[Bitmap] = None
        self.target: Optional[str] = None
        self.width = 0
        self.height = 0
        self.frames_applied = 0
        self.frames_skipped = 0
        self.resyncs = 0
        self.bytes_received = 0
        self.pings_received = 0
        #: Sender's last shipped seq as of the latest ping (liveness).
        self.last_ping_seq: Optional[int] = None
        self.last_seq: Optional[int] = None
        self._on_frame = on_frame
        self._buffer = bytearray()
        self._applier = None
        self._prev_ops: List[tuple] = []
        self._awaiting_keyframe = True

    # -- stream input ---------------------------------------------------

    def feed(self, data: bytes) -> int:
        """Consume raw stream bytes; returns frames applied this call.

        Never raises on wire corruption: damaged spans are skipped (the
        scanner hunts for the next frame magic) and the replica waits
        for a keyframe.
        """
        self.bytes_received += len(data)
        if obs.metrics_on:
            obs.registry.inc("remote.bytes_received", len(data))
        buf = self._buffer
        buf += data
        applied = 0
        offset = 0
        while offset < len(buf):
            try:
                decoded = wire.decode_frame(buf, offset, partial=True)
            except WireError:
                offset = self._resync(buf, offset)
                continue
            if decoded is None:
                break  # incomplete: wait for more bytes
            frame, offset = decoded
            if self._handle(frame):
                applied += 1
        del buf[:offset]
        return applied

    def _resync(self, buf: bytearray, offset: int) -> int:
        """Skip corrupt bytes; next plausible frame start (or EOF)."""
        self.resyncs += 1
        self._awaiting_keyframe = True
        if obs.metrics_on:
            obs.registry.inc("remote.resyncs")
        next_magic = buf.find(wire.MAGIC, offset + 1)
        return next_magic if next_magic != -1 else len(buf)

    # -- frame application ----------------------------------------------

    def _handle(self, frame) -> bool:
        if isinstance(frame, wire.Ping):
            # Liveness only: note the sender's position, touch nothing
            # else — a ping between deltas must not break the seq chain.
            self.pings_received += 1
            self.last_ping_seq = frame.seq
            if obs.metrics_on:
                obs.registry.inc("remote.pings_received")
            return False
        if isinstance(frame, wire.Hello):
            # Hellos flow renderer -> server; one arriving here is a
            # misdirected stream, not corruption.  Ignore it.
            return False
        if frame.keyframe:
            return self._apply_keyframe(frame)
        if (self._awaiting_keyframe
                or frame.target != self.target
                or (frame.width, frame.height) != (self.width, self.height)
                or (self.last_seq is not None
                    and frame.seq != self.last_seq + 1)):
            self._skip()
            return False
        try:
            ops = wire.expand_refs(frame.ops, self._prev_ops)
            for op in ops:
                self._applier.apply(op)
        except WireError:
            self._skip()
            return False
        self._prev_ops = ops
        self.last_seq = frame.seq
        self._applied()
        return True

    def _apply_keyframe(self, frame: wire.Frame) -> bool:
        applier = Applier(frame.target, frame.width, frame.height)
        try:
            for op in frame.ops:
                applier.apply(op)
        except WireError:
            self._skip()
            return False
        self.target = frame.target
        self.width, self.height = frame.width, frame.height
        self._applier = applier
        if frame.target == "ascii":
            self.surface, self.framebuffer = applier.surface, None
        else:
            self.surface, self.framebuffer = None, applier.surface
        self._prev_ops = list(frame.ops)
        self.last_seq = frame.seq
        self._awaiting_keyframe = False
        self._applied()
        return True

    def _skip(self) -> None:
        self.frames_skipped += 1
        self._awaiting_keyframe = True
        if obs.metrics_on:
            obs.registry.inc("remote.frames_skipped")

    def _applied(self) -> None:
        self.frames_applied += 1
        if obs.metrics_on:
            obs.registry.inc("remote.frames_applied")
        if self._on_frame is not None:
            self._on_frame(self)

    # -- observation ----------------------------------------------------

    @property
    def synchronized(self) -> bool:
        """True when the replica tracks the sender's frame sequence."""
        return not self._awaiting_keyframe

    def hello(self) -> bytes:
        """The resume handshake this renderer would send on (re)attach.

        Encodes the last seq actually *applied* while synchronized
        (``-1`` for a fresh or desynchronized replica, which asks for a
        keyframe) — the server replays everything after it.
        """
        last = self.last_seq if self.synchronized and \
            self.last_seq is not None else -1
        return wire.encode_hello(last)

    def flush(self) -> None:
        """No-op: a replica is always settled (fingerprint parity)."""

    def snapshot_lines(self, cell_width: int = 6,
                       cell_height: int = 8) -> List[str]:
        """The replica as printable text (density blocks for raster)."""
        if self.surface is not None:
            return self.surface.lines()
        if self.framebuffer is None:
            return []
        fb = self.framebuffer
        lines = []
        for cy in range(0, fb.height, cell_height):
            row = []
            for cx in range(0, fb.width, cell_width):
                ink = total = 0
                for y in range(cy, min(cy + cell_height, fb.height)):
                    base = y * fb.width
                    for x in range(cx, min(cx + cell_width, fb.width)):
                        ink += fb._bits[base + x]
                        total += 1
                density = ink / total if total else 0
                row.append(" " if density == 0 else
                           "." if density < 0.2 else
                           "+" if density < 0.5 else "#")
            lines.append("".join(row))
        return lines

    def __repr__(self) -> str:
        state = "synced" if self.synchronized else "awaiting-keyframe"
        return (
            f"<RemoteRenderer {self.target or 'idle'} "
            f"{self.width}x{self.height} {state} "
            f"applied={self.frames_applied}>"
        )


def main(argv=None) -> int:
    """Listen on a loopback port and render incoming frames as text."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Dumb renderer for the repro remote display protocol."
    )
    parser.add_argument("--listen", type=int, default=7788,
                        help="loopback port to listen on (default 7788)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    args = parser.parse_args(argv)

    def show(renderer: RemoteRenderer) -> None:
        print(f"\n--- frame {renderer.frames_applied} "
              f"({renderer.target} {renderer.width}x{renderer.height}) ---")
        for line in renderer.snapshot_lines():
            print(line)

    renderer = RemoteRenderer(on_frame=show)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((args.host, args.listen))
        server.listen(1)
        print(f"renderer: waiting on {args.host}:{args.listen} ...")
        conn, addr = server.accept()
        print(f"renderer: application connected from {addr}")
        with conn:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                renderer.feed(chunk)
    print(f"renderer: stream closed after {renderer.frames_applied} frames "
          f"({renderer.bytes_received} bytes, {renderer.resyncs} resyncs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
