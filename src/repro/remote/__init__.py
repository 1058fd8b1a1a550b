"""Remote display: a window's frame record as a wire protocol.

A remote window records every frame as data: a raster window logs its
device ops (:class:`~repro.graphics.batch.CommandBuffer`), and an ascii
window's cell surface records its scroll copies and written rows.  This
package serializes that record into a versioned, delta-encoded binary
stream so the toolkit can run server-side with dumb renderers at the
edge — the thin-client split the paper's §8 portability story promises
and the ROADMAP's control-room-scale fan-out exemplar (the DESY
display-server split) motivates.

Layers, bottom up:

* :mod:`~repro.remote.wire` — the versioned frame codec
  (:func:`~repro.remote.wire.encode_frame` /
  :func:`~repro.remote.wire.decode_frame`, typed
  :class:`~repro.remote.wire.WireError` on any malformed input);
* :mod:`~repro.remote.encoder` — frame records -> frames, with
  keyframes, raster op elision against the previous frame and the
  ascii cell-diff pass.  Both records hold wire ops
  (:data:`repro.graphics.batch.SCHEMA`), so the encoder ships them
  as they are;
* :mod:`~repro.remote.renderer` — the dumb client: decode into a
  replica cell grid or framebuffer, resynchronizing on loss;
* :mod:`~repro.remote.transport` — sinks (in-memory capture,
  in-process pipe, loopback socket, fan-out);
* :mod:`~repro.remote.reconnect` — resumable connections: the
  reconnecting sink (capped backoff over the ``remote.connect`` fault
  seam) and the hello/replay seq-resume handshake
  (``ANDREW_RECONNECT=1``);
* :mod:`~repro.remote.backend` — :class:`RemoteWindowSystem`, the
  seventh-class port selected by ``ANDREW_WM=remote``.
"""

from .backend import (
    REMOTE_ADDR_ENV,
    REMOTE_TARGET_ENV,
    RemoteAsciiWindow,
    RemoteRasterWindow,
    RemoteWindowSystem,
)
from .encoder import FrameEncoder, delta_compress, diff_cells
from .reconnect import RECONNECT_ENV, ReconnectingSink, resume_viewer
from .renderer import RemoteRenderer
from .transport import CaptureSink, FanoutSink, RendererSink, SocketSink
from .wire import (
    Frame,
    Hello,
    Ping,
    WireError,
    decode_frame,
    encode_frame,
    encode_hello,
    encode_ping,
)

__all__ = [
    "CaptureSink",
    "FanoutSink",
    "Frame",
    "FrameEncoder",
    "Hello",
    "Ping",
    "ReconnectingSink",
    "RemoteAsciiWindow",
    "RemoteRasterWindow",
    "RemoteRenderer",
    "RemoteWindowSystem",
    "RendererSink",
    "SocketSink",
    "WireError",
    "RECONNECT_ENV",
    "REMOTE_ADDR_ENV",
    "REMOTE_TARGET_ENV",
    "decode_frame",
    "delta_compress",
    "diff_cells",
    "encode_frame",
    "encode_hello",
    "encode_ping",
    "resume_viewer",
]
