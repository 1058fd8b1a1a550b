"""Recorded drawable command buffers on the remote backend.

Only remote windows record: their drawables carry the window's
:class:`~repro.graphics.batch.CommandBuffer`, and the recorded ops are
the frame the wire encoder ships.  Apart from the check that local
windows draw immediately, every test here runs on a
:class:`~repro.remote.RemoteWindowSystem` window, ascii and raster
targets both.

Covers:

* recording: local windows draw immediately; remote windows record
  one op per device request, nothing merged; child drawables share
  the window's buffer; the recording telemetry;
* blit intern: one pixel snapshot per distinct bitmap content a frame;
* flush ordering — every observation point settles the buffer first:
  ``snapshot_lines``, ``pending_events``, ``flush_updates`` (even with
  an empty damage queue — regression for the direct-repaint path),
  offscreen ``copy_to``;
* ``resize`` discarding ops recorded against the discarded surface.

Byte-identity of whole frames lives in ``tests/conformance/``.
"""

import pytest

from repro import obs
from repro.components import Label
from repro.core import InteractionManager
from repro.graphics import Bitmap, Rect
from repro.remote import RemoteWindowSystem
from repro.wm.events import UpdateEvent

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


def _ims(text, width=20, height=4):
    """One interaction manager per target, showing a ``Label(text)``."""
    for target in TARGETS:
        im = InteractionManager(RemoteWindowSystem(target), width=width,
                                height=height)
        im.set_child(Label(text))
        yield im


def _inked(window, x, y) -> bool:
    """True when the replica shows ink at device (x, y)."""
    if hasattr(window, "surface"):
        return window.surface.char_at(x, y) == "#"
    return bool(window.framebuffer.get(x, y))


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class TestRecording:
    def test_local_windows_draw_immediately(self, ascii_ws, raster_ws):
        for ws in (ascii_ws, raster_ws):
            window = ws.create_window("t", 40, 10)
            graphic = window.graphic()
            assert graphic._buffer is None
            graphic.fill_rect(Rect(0, 0, 4, 2), 1)
            assert _inked(window, 0, 0)

    def test_records_instead_of_drawing(self):
        for window in _windows():
            graphic = window.graphic()
            graphic.fill_rect(Rect(0, 0, 4, 2), 1)
            assert window.commands.pending == 1
            assert not _inked(window, 0, 0)  # not drawn yet
            window.flush()
            assert window.commands.pending == 0
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
            assert [op[0] for op in window.commands._ops] == [
                "fill", "fill", "hline", "hline", "text", "text"]

    def test_child_graphics_share_the_window_buffer(self):
        for window in _windows():
            child = window.graphic().child(Rect(2, 2, 10, 4))
            child.fill_rect(Rect(0, 0, 2, 2), 1)
            assert window.commands.pending == 1

    def test_counters_and_flush_timer(self, telemetry):
        for window in _windows():
            obs.registry.reset()
            graphic = window.graphic()
            graphic.draw_string(0, 0, "a")
            graphic.draw_string(graphic.string_width("a"), 0, "b")
            graphic.fill_rect(Rect(0, 2, 4, 2), 1)
            window.flush()
            snap = telemetry.snapshot()
            assert snap["counters"]["wm.requests_batched"] == 3
            assert snap["counters"]["wm.batch_flushes"] == 1
            assert snap["counters"]["wm.batch_ops_replayed"] == 3
            assert snap["timers"]["wm.batch_flush_ns"]["count"] == 1


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
            ops = window.commands._ops
            assert len({id(op[1]) for op in ops}) == 1
            # A mutation between blits must still snapshot fresh pixels
            # — the intern keys on content, not identity.
            bitmap.set(2, 2, 1)
            graphic.draw_bitmap(bitmap, 20, 0)
            assert len({id(op[1]) for op in ops}) == 2
            width, _height, pixels = ops[-1][1]
            assert pixels[1 * width + 1] == 1
            # Draining the buffer clears the intern: the source may
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
# Flush ordering: observation points settle the buffer
# ---------------------------------------------------------------------------


class TestFlushOrdering:
    def test_snapshot_mid_frame_settles(self):
        """Regression: ops recorded but not yet flushed must land before
        the snapshot is taken, on demand."""
        for im in _ims("hello"):
            im.flush_updates()
            # Dispatch an expose by hand — no flush_updates afterwards,
            # so the repainted frame still sits in the command buffer.
            im.window.inject_expose()
            while True:
                event = im.window.next_event()
                if event is None:
                    break
                im.handle_event(event)
            assert im.window.commands.pending > 0
            lines = im.window.snapshot_lines()
            assert im.window.commands.pending == 0
            if hasattr(im.window, "surface"):
                assert "hello" in "\n".join(lines)

    def test_raster_snapshot_mid_frame_settles(self):
        window = RemoteWindowSystem("raster").create_window("t", 30, 10)
        window.graphic().fill_rect(Rect(0, 0, 30, 10), 1)
        assert window.commands.pending == 1
        lines = window.snapshot_lines()
        assert window.commands.pending == 0
        assert any("#" in line for line in lines)

    def test_pending_events_settles(self):
        for window in _windows():
            window.graphic().fill_rect(Rect(0, 0, 4, 2), 1)
            assert window.commands.pending == 1
            window.pending_events()
            assert window.commands.pending == 0
            assert _inked(window, 0, 0)

    def test_flush_updates_settles_without_damage(self):
        """Regression for the early-return path: a direct repaint leaves
        recorded ops but no queued damage; flush_updates must still
        drain the buffer."""
        for im in _ims("mark"):
            im.process_events()
            assert im.updates.is_empty()
            im.handle_event(UpdateEvent(im.window.bounds, full=True))
            assert im.window.commands.pending > 0
            im.flush_updates()  # damage queue empty; must drain anyway
            assert im.window.commands.pending == 0
            if hasattr(im.window, "surface"):
                assert "mark" in im.window.snapshot()

    def test_process_events_always_settles(self):
        for im in _ims("mark"):
            im.process_events()
            im.window.inject_expose()
            im.process_events()
            assert im.window.commands.pending == 0

    def test_offscreen_copy_to_settles_target(self):
        for window in _windows(20, 6):
            graphic = window.graphic()
            graphic.fill_rect(Rect(0, 0, 20, 6), 1)    # recorded, pending
            ws = window._window_system
            off = ws.create_offscreen(4, 2)
            off.graphic().clear()                       # offscreen: immediate
            off.copy_to(graphic, 2, 2)                  # must settle first
            window.flush()
            # The blank offscreen landed *after* the fill — not under it.
            assert not _inked(window, 2, 2)
            assert _inked(window, 0, 0)

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
            assert window.commands.pending == 1
            window.resize(30, 8)
            assert window.commands.pending == 0
            assert window.commands.frame == []
            window.flush()  # nothing to replay against the fresh surface
            assert not _inked(window, 0, 0)
