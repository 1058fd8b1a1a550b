"""Remote-session helpers: one server loop fanning frames to viewers.

The DESY display-server split at control-room scale: the
:class:`~repro.server.serverloop.ServerLoop` hosts N sessions whose
window systems are :class:`~repro.remote.backend.RemoteWindowSystem`
instances, and every session's frames fan out to any number of
attached renderers (an operator's console mirrored to a video wall).

These helpers keep the wiring one-liners::

    loop = ServerLoop()
    session = add_remote_session(loop, renderer=wall_renderer)
    attach_viewer(session, desk_renderer)   # late joiner: gets a keyframe
"""

from __future__ import annotations

from typing import Optional

from ..remote.backend import RemoteWindowSystem
from ..remote.renderer import RemoteRenderer
from .serverloop import ServerLoop
from .session import DEFAULT_QUEUE_LIMIT, Session

__all__ = ["add_remote_session", "attach_viewer", "resume_viewer",
           "session_window"]


def add_remote_session(loop: ServerLoop, *,
                       session_id: Optional[str] = None,
                       target: str = "ascii",
                       keyframe_interval: int = 64,
                       renderer: Optional[RemoteRenderer] = None,
                       sink=None,
                       width: int = 80, height: int = 24,
                       queue_limit: int = DEFAULT_QUEUE_LIMIT) -> Session:
    """Add a session whose display ships over the wire.

    ``renderer``/``sink`` seed the session window's fan-out; attach
    more viewers later with :func:`attach_viewer`.
    """
    window_system = RemoteWindowSystem(
        target, keyframe_interval=keyframe_interval,
        sink=sink, renderer=renderer,
    )
    return loop.add_session(
        session_id=session_id, window_system=window_system,
        width=width, height=height, queue_limit=queue_limit,
    )


def session_window(session: Session):
    """The session's backend window (where viewers attach)."""
    return session.im.window


def attach_viewer(session: Session, renderer: RemoteRenderer,
                  chunk_size: Optional[int] = None) -> RemoteRenderer:
    """Mirror ``session`` to one more renderer.

    The encoder keyframes on the next flush, so a viewer attached
    mid-session converges without replaying history.  Returns the
    renderer for chaining.
    """
    session_window(session).attach_renderer(renderer, chunk_size)
    return renderer


def resume_viewer(session: Session, renderer: RemoteRenderer,
                  chunk_size: Optional[int] = None) -> RemoteRenderer:
    """Re-attach a disconnected viewer, resuming at its last seq.

    The hello/replay handshake: missed frames replay verbatim from the
    encoder's history when the gap is in window, else the next flush
    keyframes.  Returns the renderer for chaining.
    """
    session_window(session).resume_renderer(renderer, chunk_size)
    return renderer
