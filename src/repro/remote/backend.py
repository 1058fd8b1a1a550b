"""``RemoteWindowSystem`` — the seventh-class port (paper §8).

The paper counts six porting classes and ~70 routines for a new
display server; the remote backend is that port against a *wire*
instead of a device.  Each window keeps a full local replica (a
:class:`~repro.wm.ascii_ws.CellSurface` or raster framebuffer — the
encoder's diff source and the conformance baseline), and at ``flush``
the frame's logged ops go through a :class:`~repro.remote.encoder.
FrameEncoder` and out every attached sink to dumb renderers.

What the port adds to a plain local backend: drawables carry the
window's :class:`~repro.graphics.batch.CommandBuffer`, so every device
op runs on the replica at once and is also logged.  At ``flush`` the
log — every op the frame executed, in order — goes to the encoder.
The logged ops already are wire ops
(:data:`repro.graphics.batch.SCHEMA`), so nothing is copied or
translated.  Writes that bypass the drawable (an offscreen
``copy_to``, how ``AnimationView`` shows its pre-composed frames) are
not logged; the encoder's shadow diff repairs them.

Select it like any backend: ``ANDREW_WM=remote`` builds one from the
environment (``ANDREW_REMOTE_TARGET``,
``ANDREW_REMOTE_ADDR=host:port`` for a loopback socket sink;
``ANDREW_RECONNECT=1`` wraps that socket in a
:class:`~repro.remote.reconnect.ReconnectingSink` and turns on
heartbeat pings, making the connection self-healing).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import obs
from ..config import env_str
from ..graphics import batch
from ..graphics.fontdesc import FontDesc, FontMetrics
from ..wm.ascii_ws import AsciiOffscreen, AsciiWindow, _cell_metrics
from ..wm.base import WindowSystem
from ..wm.raster_ws import (
    RasterOffscreen,
    RasterWindow,
    RequestCounter,
    _metrics_for,
)
from . import wire
from .encoder import FrameEncoder
from .reconnect import ReconnectingSink, reconnect_from_env, resume_viewer
from .transport import FanoutSink, RendererSink, SocketSink, faulty_send

__all__ = ["RemoteWindowSystem", "RemoteAsciiWindow", "RemoteRasterWindow",
           "REMOTE_TARGET_ENV", "REMOTE_ADDR_ENV"]

REMOTE_TARGET_ENV = "ANDREW_REMOTE_TARGET"
REMOTE_ADDR_ENV = "ANDREW_REMOTE_ADDR"


def _parse_addr(addr: str) -> Tuple[str, int]:
    """Split ``ANDREW_REMOTE_ADDR`` into (host, port); the host defaults
    to the loopback address.  Anything else raises ``ValueError``."""
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise ValueError(
            f"{REMOTE_ADDR_ENV}={addr!r}: expected host:port with a port "
            f"from 1 to 65535")
    return host or "127.0.0.1", int(port)


class _RemoteWindowMixin:
    """The wire-shipping half of a remote window (both targets)."""

    def _init_remote(self) -> None:
        #: The frame's executed device ops, awaiting shipping.
        self.commands = batch.CommandBuffer()
        self._encoder: Optional[FrameEncoder] = None
        self._sink = FanoutSink()
        #: Heartbeat cadence: after this many consecutive flushes that
        #: shipped nothing, send one tiny ping (None = heartbeats off).
        self.ping_every: Optional[int] = None
        self.pings_sent = 0
        self._quiet_flushes = 0

    def graphic(self):
        """The root drawable; it logs into :attr:`commands`, and its
        child drawables inherit the log via ``Graphic.child``."""
        graphic = super().graphic()
        graphic._buffer = self.commands
        return graphic

    def _wire_surface(self):
        raise NotImplementedError

    def flush(self) -> None:
        """Ship the frame's logged ops to every viewer."""
        encoder = self._encoder
        ops = self.commands.take()
        if encoder is None or not self._sink.sinks:
            # No viewer: drop the ops; the attach keyframe will carry
            # whatever state accumulates meanwhile.
            return
        data = encoder.encode(ops, self._wire_surface())
        if data is not None:
            self._quiet_flushes = 0
            faulty_send(self._sink, data)
        elif self.ping_every is not None and encoder.last_seq >= 0:
            # Idle heartbeat: a dozen bytes proving liveness (and the
            # sender's position) — deliberately not an encoder frame,
            # so it never perturbs seq or the byte-budget benches.
            self._quiet_flushes += 1
            if self._quiet_flushes >= self.ping_every:
                self._quiet_flushes = 0
                self.pings_sent += 1
                if obs.metrics_on:
                    obs.registry.inc("remote.pings_sent")
                faulty_send(self._sink, wire.encode_ping(encoder.last_seq))

    def resize(self, width: int, height: int) -> None:
        # Logged ops drew on the old surface: drop them.  The queued
        # full expose redraws everything and the encoder keyframes the
        # new size.
        self.commands.take()
        super().resize(width, height)
        if self._encoder is not None:
            self._encoder.resize(width, height)

    def attach_sink(self, sink, keyframe: bool = True) -> None:
        """Add a viewer; the next frame is a keyframe so it can join.

        ``keyframe=False`` skips the join keyframe — only correct when
        the viewer is already synchronized (the seq-resume path, which
        has just replayed the missed frames into it).
        """
        self._sink.add(sink)
        if keyframe and self._encoder is not None:
            self._encoder.request_keyframe()

    def attach_renderer(self, renderer,
                        chunk_size: Optional[int] = None) -> None:
        """Attach an in-process renderer (the deterministic pipe)."""
        self.attach_sink(RendererSink(renderer, chunk_size))

    def resume_renderer(self, renderer,
                        chunk_size: Optional[int] = None):
        """Re-attach a rejoining renderer at its last applied seq.

        The hello/replay handshake (:func:`~repro.remote.reconnect.
        resume_viewer`): history replays the missed frames verbatim
        when it can, otherwise the next frame is a keyframe.  Returns
        the attached sink.
        """
        return resume_viewer(self, renderer, chunk_size=chunk_size)

    def detach_sink(self, sink) -> None:
        self._sink.remove(sink)

    def close(self) -> None:
        super().close()
        self._sink.close()


class RemoteAsciiWindow(_RemoteWindowMixin, AsciiWindow):
    """A remote window whose local replica is a cell grid."""

    def __init__(self, title: str, width: int, height: int) -> None:
        super().__init__(title, width, height)
        self._init_remote()

    def _wire_surface(self):
        return self.surface


class RemoteRasterWindow(_RemoteWindowMixin, RasterWindow):
    """A remote window whose local replica is a pixel framebuffer."""

    def __init__(self, title: str, width: int, height: int,
                 requests: RequestCounter) -> None:
        super().__init__(title, width, height, requests)
        self._init_remote()

    def _wire_surface(self):
        return self.framebuffer


class RemoteWindowSystem(WindowSystem):
    """The wire-shipping window system (``ANDREW_WM=remote``).

    ``target`` names the renderer-side surface type (``ascii`` or
    ``raster``); the local replica uses the matching local backend's
    surface, graphic and offscreen classes, so everything above the
    porting interface behaves exactly as it does locally.  ``sink`` /
    ``renderer`` seed every window's fan-out list; more viewers attach
    per window with ``attach_renderer``/``attach_sink``.  Every frame
    after a keyframe is delta-encoded; ``delta`` is accepted only so
    callers that still pass ``delta=True`` run, and ``delta=False``
    raises.
    """

    atk_name = "remotews"
    name = "remote"

    #: Heartbeat cadence used when reconnect is enabled and the caller
    #: did not choose one: one ping per this many quiet flushes.
    DEFAULT_PING_EVERY = 16

    def __init__(self, target: str = "ascii", *, delta: bool = True,
                 keyframe_interval: int = 64, sink=None,
                 renderer=None,
                 ping_every: Optional[int] = None,
                 resume_window: int = FrameEncoder.DEFAULT_RESUME_WINDOW,
                 ) -> None:
        super().__init__()
        if target not in wire.TARGETS:
            raise ValueError(f"unknown remote target {target!r}")
        if not delta:
            raise ValueError("delta=False is retired: every frame after "
                             "a keyframe is delta-encoded")
        self.target = target
        self.keyframe_interval = keyframe_interval
        self.ping_every = ping_every
        self.resume_window = resume_window
        self.requests = RequestCounter()
        self._seed_sinks: list = []
        if sink is not None:
            self._seed_sinks.append(sink)
        if renderer is not None:
            self._seed_sinks.append(RendererSink(renderer))

    @classmethod
    def from_env(cls) -> "RemoteWindowSystem":
        """Build from ``ANDREW_REMOTE_*`` (the ``ANDREW_WM=remote`` path).

        With ``ANDREW_RECONNECT=1`` the socket sink becomes a
        :class:`~repro.remote.reconnect.ReconnectingSink` (lazy
        connect, capped backoff, automatic keyframe on reconnect) and
        heartbeat pings default on.
        """
        target = env_str(REMOTE_TARGET_ENV, "ascii")
        if target not in wire.TARGETS:
            raise ValueError(
                f"{REMOTE_TARGET_ENV}={target!r}: expected one of "
                f"{', '.join(wire.TARGETS)}")
        sink = None
        ping_every = None
        addr = env_str(REMOTE_ADDR_ENV, "")
        if addr:
            host, port = _parse_addr(addr)
            if reconnect_from_env():
                sink = ReconnectingSink(
                    lambda h=host, p=port: SocketSink(h, p),
                    name=f"{host}:{port}")
                ping_every = cls.DEFAULT_PING_EVERY
            else:
                sink = SocketSink(host, port)
        return cls(target, sink=sink, ping_every=ping_every)

    def _make_window(self, title: str, width: int, height: int):
        if self.target == "ascii":
            window = RemoteAsciiWindow(title, width, height)
        else:
            window = RemoteRasterWindow(title, width, height, self.requests)
        window._encoder = FrameEncoder(
            self.target, width, height,
            keyframe_interval=self.keyframe_interval,
            resume_window=self.resume_window,
        )
        window.ping_every = self.ping_every
        for sink in self._seed_sinks:
            window.attach_sink(sink)
            # A reconnecting seed sink should ask this window for a
            # fresh keyframe every time its transport comes back.
            if isinstance(sink, ReconnectingSink) and sink.on_connect is None:
                encoder = window._encoder
                sink.on_connect = (
                    lambda _s, _e=encoder: _e.request_keyframe())
        return window

    def create_offscreen(self, width: int, height: int):
        if self.target == "ascii":
            return AsciiOffscreen(width, height)
        return RasterOffscreen(width, height, self.requests)

    def _font_metrics(self, desc: FontDesc) -> FontMetrics:
        if self.target == "ascii":
            return _cell_metrics(desc)
        return _metrics_for(desc)

    def stats(self) -> dict:
        stats = {"windows": len(self.windows), "target": self.target}
        frames = bytes_sent = keyframes = 0
        for window in self.windows:
            encoder = window._encoder
            if encoder is not None:
                frames += encoder.frames_sent
                bytes_sent += encoder.bytes_sent
                keyframes += encoder.keyframes_sent
        stats.update(frames_sent=frames, bytes_sent=bytes_sent,
                     keyframes_sent=keyframes)
        if self.target == "raster":
            stats.update(self.requests.counts)
        return stats
