"""Resumable remote connections: reconnect with backoff, resume by seq.

The v1 remote story treats a dead transport as permanent loss: the
:class:`~repro.remote.transport.SocketSink` goes ``alive=False`` and
the viewer is gone until a human reattaches one.  This module closes
that loop with two cooperating pieces:

* :class:`ReconnectingSink` — a sink wrapper owning a *connect
  factory* instead of a socket.  Send failures (and failures of the
  connect attempts themselves, which cross the ``remote.connect``
  fault seam) mark it disconnected; subsequent sends first wait out a
  capped-exponential backoff (counted in send attempts — the transport
  layer is clockless, like the rest of the toolkit) with deterministic
  CRC jitter, then retry the factory.  While disconnected, frames are
  dropped and counted (``frames_lost``) — display frames are
  idempotent-by-keyframe, so the resume path below repairs the gap.
* :func:`resume_viewer` — the server half of the seq-resume handshake.
  A rejoining renderer reports the last seq it applied
  (:meth:`RemoteRenderer.hello`); the window's encoder replays the
  missed frames *verbatim* from its bounded history
  (:meth:`FrameEncoder.resume_frames`) so the replica converges
  byte-identically to a viewer that never disconnected, or falls back
  to a fresh keyframe when the gap is out of window.  Either way the
  counter story balances: every successful rejoin is one
  ``remote.resumes``, split into ``remote.resume_replays`` (history
  served the gap) and ``remote.resume_keyframes`` (fallback).

Heartbeats ride the same machinery: the backend's ``ping_every`` ships
a tiny :class:`~repro.remote.wire.Ping` (the sender's last seq) when a
flush had nothing else to send, so liveness and the renderer's notion
of "how far behind am I" cost a dozen bytes, not a keyframe.

``ANDREW_RECONNECT=1`` makes :meth:`RemoteWindowSystem.from_env` wrap
its socket sinks in a :class:`ReconnectingSink` automatically.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from .. import obs
from ..config import env_flag
from ..testing import faultinject

__all__ = [
    "RECONNECT_ENV",
    "ReconnectingSink",
    "reconnect_from_env",
    "resume_viewer",
]

RECONNECT_ENV = "ANDREW_RECONNECT"


def reconnect_from_env() -> bool:
    """True when ``ANDREW_RECONNECT`` asks socket sinks to self-heal."""
    return env_flag(RECONNECT_ENV, False)


class ReconnectingSink:
    """A sink that survives its transport: retry, back off, resume.

    ``connect`` is a zero-argument factory returning a fresh connected
    sink (e.g. ``lambda: SocketSink(host, port)``); it may raise
    ``OSError`` while the peer is down.  ``on_connect`` fires after
    every *successful* (re)connect with this sink as argument — the
    natural place to request a keyframe or replay history into the new
    transport (:func:`resume_viewer` does exactly that).

    Backoff is counted in **send attempts**, not seconds: after the
    Nth consecutive connect failure, the next ``min(cap, base <<
    (N - 1)) + jitter`` sends are dropped without trying the factory.  The
    transport stays clockless and a seeded chaos run replays exactly
    (the jitter is a CRC of the attempt ordinal, not a live RNG).
    """

    def __init__(self, connect: Callable[[], object], *,
                 name: str = "remote",
                 backoff_base: int = 1,
                 backoff_cap: int = 16,
                 jitter_span: int = 2,
                 on_connect: Optional[Callable[["ReconnectingSink"],
                                               None]] = None) -> None:
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError("need 1 <= backoff_base <= backoff_cap")
        self._connect = connect
        self.name = name
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter_span = max(0, jitter_span)
        self.on_connect = on_connect
        self.sink = None
        self.connects = 0
        self.connect_errors = 0
        self.frames_lost = 0
        self.last_error: Optional[BaseException] = None
        self.closed = False
        self._failures = 0     # consecutive connect failures
        self._cooldown = 0     # sends to drop before the next attempt

    # -- connection management -------------------------------------------

    @property
    def connected(self) -> bool:
        return self.sink is not None and getattr(self.sink, "alive", True)

    def _backoff(self) -> int:
        delay = min(self.backoff_cap,
                    self.backoff_base << min(self._failures - 1, 16))
        if self.jitter_span:
            key = f"{self.name}:{self._failures}".encode("ascii", "replace")
            delay += zlib.crc32(key) % (self.jitter_span + 1)
        return delay

    def _try_connect(self) -> bool:
        try:
            if faultinject.enabled:
                # The ``remote.connect`` seam: the peer is down, the
                # route is gone — the attempt itself dies.
                faultinject.maybe_raise("remote.connect")
            sink = self._connect()
        except Exception as exc:
            self.connect_errors += 1
            self.last_error = exc
            self._failures += 1
            self._cooldown = self._backoff()
            if obs.metrics_on:
                obs.registry.inc("remote.connect_errors")
            return False
        # A socket sink built by the factory reports its first send
        # failure through on_broken; route it back into this wrapper.
        if hasattr(sink, "on_broken") and sink.on_broken is None:
            sink.on_broken = lambda _s: self._mark_broken()
        self.sink = sink
        self._failures = 0
        self._cooldown = 0
        self.connects += 1
        if obs.metrics_on:
            obs.registry.inc("remote.connects")
            if self.connects > 1:
                obs.registry.inc("remote.reconnects")
        if self.on_connect is not None:
            self.on_connect(self)
        return True

    def _mark_broken(self) -> None:
        self.sink = None

    # -- sink protocol ----------------------------------------------------

    def send(self, data: bytes) -> None:
        if self.closed:
            return
        if not self.connected:
            self.sink = None
            if self._cooldown > 0:
                # Still backing off: this frame is transport loss.
                self._cooldown -= 1
                self.frames_lost += 1
                if obs.metrics_on:
                    obs.registry.inc("remote.frames_lost")
                return
            if not self._try_connect():
                self.frames_lost += 1
                if obs.metrics_on:
                    obs.registry.inc("remote.frames_lost")
                return
        self.sink.send(data)
        if not self.connected:
            # The send itself broke the transport; the frame is gone.
            self.frames_lost += 1
            if obs.metrics_on:
                obs.registry.inc("remote.frames_lost")

    def close(self) -> None:
        self.closed = True
        sink, self.sink = self.sink, None
        if sink is not None:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:
        state = ("closed" if self.closed else
                 "connected" if self.connected else
                 f"backoff({self._cooldown})")
        return (f"<ReconnectingSink {self.name!r} {state} "
                f"connects={self.connects} lost={self.frames_lost}>")


def resume_viewer(window, renderer, *, chunk_size: Optional[int] = None):
    """Re-attach ``renderer`` to ``window`` resuming at its last seq.

    The server half of the hello handshake, driven directly (the
    in-process form the conformance tests prove; the socket form just
    moves the same bytes).  The renderer's last applied seq selects the
    path:

    * **replay** — the encoder's history still holds every frame after
      it: those bytes are fed first, verbatim, so the replica ends
      byte-identical to one that never disconnected;
    * **keyframe** — gap out of window (or fresh renderer): the normal
      late-joiner keyframe resync.

    Returns the attached :class:`~repro.remote.transport.RendererSink`.
    """
    from .transport import RendererSink
    from .wire import Hello, WireError, decode_frame

    encoder = window._encoder
    decoded = decode_frame(renderer.hello())
    if decoded is None or not isinstance(decoded[0], Hello):
        raise WireError("renderer hello did not decode as a hello")
    last_seq = decoded[0].last_seq
    sink = RendererSink(renderer, chunk_size)
    missed = encoder.resume_frames(last_seq)
    if missed is None:
        # Unservable gap: classic keyframe resync.
        window.attach_sink(sink)
        if obs.metrics_on:
            obs.registry.inc("remote.resumes")
            obs.registry.inc("remote.resume_keyframes")
        return sink
    for data in missed:
        sink.send(data)
    window.attach_sink(sink, keyframe=False)
    if obs.metrics_on:
        obs.registry.inc("remote.resumes")
        obs.registry.inc("remote.resume_replays")
        if missed:
            obs.registry.inc("remote.resume_frames_replayed", len(missed))
    return sink
