"""The remote backend's op log: draws at once, logs once.

Every window draws each device op at once; only remote windows also
log it: their drawables carry the window's
:class:`~repro.graphics.batch.CommandBuffer`, and the logged ops are
the frame the wire encoder ships.  Apart from the check that local
windows log nothing, every test here runs on a
:class:`~repro.remote.RemoteWindowSystem` window, ascii and raster
targets both.

Covers:

* logging: an op shows on the replica as it is logged; one op per
  device request, nothing merged; child drawables share the window's
  log; observing the window ships nothing;
* blit intern: one pixel snapshot per distinct bitmap content a frame,
  cleared when the frame is taken;
* shipping: ``flush_updates`` ships a direct repaint even with an
  empty damage queue; ``process_events`` always ships; an offscreen
  ``copy_to`` between logged ops reaches the renderer byte for byte;
  offscreen drawables never log;
* ``resize`` emptying the log of ops drawn on the discarded surface.

Byte-identity of whole frames lives in ``tests/conformance/``.
"""

import pytest

from repro import obs
from repro.components import Label
from repro.core import InteractionManager
from repro.graphics import Bitmap, Rect
from repro.remote import RemoteRenderer, RemoteWindowSystem
from repro.wm.events import UpdateEvent

from .conformance.driver import fingerprint

TARGETS = ("ascii", "raster")


@pytest.fixture
def telemetry():
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    yield obs.registry
    obs.configure(metrics=was, reset_data=True)


def _windows(width=40, height=10):
    """One fresh remote window per target."""
    for target in TARGETS:
        yield RemoteWindowSystem(target).create_window("t", width, height)


def _ims(text, width=20, height=4, renderer=None):
    """One interaction manager per target, showing a ``Label(text)``;
    ``renderer`` (a factory) attaches a fresh viewer to each."""
    for target in TARGETS:
        ws = RemoteWindowSystem(
            target, renderer=renderer() if renderer else None)
        im = InteractionManager(ws, width=width, height=height)
        im.set_child(Label(text))
        yield im


def _inked(window, x, y) -> bool:
    """True when the replica shows ink at device (x, y)."""
    if hasattr(window, "surface"):
        return window.surface.char_at(x, y) == "#"
    return bool(window.framebuffer.get(x, y))


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------


class TestRecording:
    def test_local_windows_draw_immediately(self, ascii_ws, raster_ws):
        for ws in (ascii_ws, raster_ws):
            window = ws.create_window("t", 40, 10)
            graphic = window.graphic()
            assert graphic._buffer is None
            graphic.fill_rect(Rect(0, 0, 4, 2), 1)
            assert _inked(window, 0, 0)

    @pytest.mark.parametrize("target", TARGETS)
    def test_ops_draw_as_they_are_logged(self, target):
        window = RemoteWindowSystem(target).create_window("t", 40, 10)
        window.graphic().fill_rect(Rect(0, 0, 4, 2), 1)
        assert _inked(window, 0, 0)  # no flush needed
        assert window.commands.frame == [("fill", 0, 0, 4, 2, 1)]
        window.flush()
        assert window.commands.frame == []
        assert _inked(window, 0, 0)

    def test_every_request_is_its_own_op(self):
        """Nothing merges: abutting fills, contiguous spans and
        same-baseline text each stay one op per device request."""
        for window in _windows():
            graphic = window.graphic()
            graphic.fill_rect(Rect(0, 0, 4, 3), 1)
            graphic.fill_rect(Rect(4, 0, 2, 3), 1)
            graphic.draw_line(0, 5, 10, 5)
            graphic.draw_line(11, 5, 20, 5)
            graphic.draw_string(0, 7, "a")
            graphic.draw_string(graphic.string_width("a"), 7, "b")
            assert [op[0] for op in window.commands.frame] == [
                "fill", "fill", "hline", "hline", "text", "text"]

    def test_child_graphics_share_the_window_buffer(self):
        for window in _windows():
            child = window.graphic().child(Rect(2, 2, 10, 4))
            child.fill_rect(Rect(0, 0, 2, 2), 1)
            assert window.commands.frame == [("fill", 2, 2, 2, 2, 1)]
            assert _inked(window, 2, 2)

    def test_observing_ships_nothing(self):
        """``snapshot_lines`` and ``pending_events`` read the replica
        as it stands: the frame stays logged until the next flush."""
        for target in TARGETS:
            renderer = RemoteRenderer()
            ws = RemoteWindowSystem(target, renderer=renderer)
            window = ws.create_window("t", 30, 10)
            window.flush()  # the join keyframe
            frames = renderer.frames_applied
            window.graphic().fill_rect(Rect(0, 0, 30, 10), 1)
            lines = window.snapshot_lines()
            assert window.pending_events() == 0
            assert any("#" in line for line in lines)
            assert len(window.commands.frame) == 1
            assert renderer.frames_applied == frames
            window.flush()
            assert renderer.frames_applied == frames + 1
            assert fingerprint(renderer) == fingerprint(window)


# ---------------------------------------------------------------------------
# Blit intern
# ---------------------------------------------------------------------------


class TestBlitIntern:
    def test_repeated_blits_of_one_bitmap_snapshot_once(self):
        # The latent bug the wire encoder surfaced: record_blit used to
        # snapshot the source eagerly per call, so an animation blitting
        # one cel N times copied (and would have wire-encoded) the
        # pixels N times.  Identical contents now intern per frame.
        for window in _windows():
            bitmap = Bitmap(4, 4)
            bitmap.set(1, 1, 1)
            graphic = window.graphic()
            for i in range(5):
                graphic.draw_bitmap(bitmap, i * 4, 0)
            ops = window.commands.frame
            assert len({id(op[1]) for op in ops}) == 1
            # A mutation between blits must still snapshot fresh pixels
            # — the intern keys on content, not identity.
            bitmap.set(2, 2, 1)
            graphic.draw_bitmap(bitmap, 20, 0)
            assert len({id(op[1]) for op in ops}) == 2
            width, _height, pixels = ops[-1][1]
            assert pixels[1 * width + 1] == 1
            # Taking the frame clears the intern: the source may
            # mutate freely between frames.
            window.flush()
            assert window.commands._blit_cache == {}

    def test_blit_dedupe_counts_in_telemetry(self, telemetry):
        for window in _windows():
            obs.registry.reset()
            bitmap = Bitmap(2, 2)
            graphic = window.graphic()
            for _ in range(4):
                graphic.draw_bitmap(bitmap, 0, 0)
            assert telemetry.snapshot()["counters"][
                "wm.blit_snapshots_deduped"
            ] == 3


# ---------------------------------------------------------------------------
# Shipping: every frame reaches the renderer
# ---------------------------------------------------------------------------


class TestFlushOrdering:
    def test_flush_updates_settles_without_damage(self):
        """Regression for the early-return path: a direct repaint logs
        ops but queues no damage; flush_updates must still ship them."""
        for im in _ims("mark", renderer=RemoteRenderer):
            renderer = im.window._sink.sinks[0].renderer
            im.process_events()
            assert im.updates.is_empty()
            frames = renderer.frames_applied
            # New text without posting damage: only the direct repaint
            # below shows it.
            im.child._text = "mork"
            im.handle_event(UpdateEvent(im.window.bounds, full=True))
            assert im.window.commands.frame
            im.flush_updates()  # damage queue empty; must ship anyway
            assert im.window.commands.frame == []
            assert renderer.frames_applied == frames + 1
            assert fingerprint(renderer) == fingerprint(im.window)
            if hasattr(im.window, "surface"):
                assert "mork" in im.window.snapshot()

    def test_process_events_always_settles(self):
        for im in _ims("mark"):
            im.process_events()
            im.window.inject_expose()
            im.process_events()
            assert im.window.commands.frame == []

    def test_offscreen_copy_to_settles_target(self):
        """An offscreen blit writes the replica directly, unlogged,
        between two logged fills; the shipped frame must still leave
        the renderer identical to the window."""
        for target in TARGETS:
            renderer = RemoteRenderer()
            ws = RemoteWindowSystem(target, renderer=renderer)
            window = ws.create_window("t", 20, 6)
            window.flush()  # the join keyframe
            graphic = window.graphic()
            graphic.fill_rect(Rect(0, 0, 20, 6), 1)
            off = ws.create_offscreen(4, 2)
            off.graphic().clear()                       # offscreen: unlogged
            off.copy_to(graphic, 2, 2)
            graphic.fill_rect(Rect(3, 3, 2, 2), 1)
            window.flush()
            # The blank offscreen landed *after* the first fill and
            # under the second.
            assert not _inked(window, 2, 2)
            assert _inked(window, 0, 0)
            assert _inked(window, 3, 3)
            assert fingerprint(renderer) == fingerprint(window)

    def test_offscreen_graphics_never_batch(self):
        for target in TARGETS:
            off = RemoteWindowSystem(target).create_offscreen(4, 2)
            graphic = off.graphic()
            assert graphic._buffer is None
            graphic.fill_rect(Rect(0, 0, 4, 2), 1)
            inked = (off.surface.char_at(0, 0) == "#" if target == "ascii"
                     else off.bitmap.get(0, 0))
            assert inked                                # drew immediately


# ---------------------------------------------------------------------------
# Resize
# ---------------------------------------------------------------------------


class TestResize:
    def test_resize_discards_pending_ops(self):
        for window in _windows():
            window.graphic().fill_rect(Rect(0, 0, 4, 2), 1)
            assert len(window.commands.frame) == 1
            window.resize(30, 8)
            assert window.commands.frame == []
            assert not _inked(window, 0, 0)  # a fresh surface
