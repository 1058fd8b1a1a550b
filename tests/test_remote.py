"""Unit tests for the remote display subsystem (encoder, backend,
transport, server fan-out) — the conformance matrix proves end-to-end
byte-identity; these pin the protocol *behaviors* around it."""

from __future__ import annotations

import pytest

from repro import obs
from repro.graphics.image import Bitmap
from repro.remote import (
    CaptureSink,
    FrameEncoder,
    RemoteRenderer,
    RemoteWindowSystem,
    decode_frame,
    delta_compress,
    diff_cells,
)
from repro.remote.backend import (
    REMOTE_ADDR_ENV,
    REMOTE_TARGET_ENV,
    RemoteAsciiWindow,
    RemoteRasterWindow,
)
from repro.remote.encoder import diff_rowbits
from repro.wm.ascii_ws import AsciiGraphic, AsciiOffscreen, CellSurface
from repro.wm.base import PORTING_CLASSES, porting_surface


@pytest.fixture
def telemetry():
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    yield obs.registry
    obs.configure(metrics=was, reset_data=True)


def _decode_all(data_list):
    frames = []
    for data in data_list:
        frame, _ = decode_frame(data)
        frames.append(frame)
    return frames


# ---------------------------------------------------------------------------
# Delta primitives
# ---------------------------------------------------------------------------


class TestDeltaPrimitives:
    def test_delta_compress_elides_repeated_runs(self):
        prev = [("pixel", 0, 0, 1), ("pixel", 1, 0, 1), ("pixel", 2, 0, 1),
                ("fill", 0, 0, 4, 4, 0)]
        ops = prev[:3] + [("pixel", 9, 9, 1)]
        compressed, elided = delta_compress(ops, prev)
        assert compressed == [("ref", 0, 3), ("pixel", 9, 9, 1)]
        assert elided == 3

    def test_delta_compress_no_overlap_no_refs(self):
        ops = [("pixel", 5, 5, 1)]
        compressed, elided = delta_compress(ops, [("pixel", 0, 0, 1)])
        assert compressed == ops and elided == 0

    def test_diff_cells_merges_small_gaps(self):
        old, new = CellSurface(20, 2), CellSurface(20, 2)
        new.put(0, 0, "a")
        new.put(3, 0, "b")  # gap of 2 <= max_gap: one run
        new.put(15, 0, "c")  # far away: its own run
        ops, changed = diff_cells(old, new)
        assert changed == 3
        assert [op[:3] for op in ops] == [("cells", 0, 0), ("cells", 0, 15)]
        assert ops[0][3] == "a  b"

    def test_diff_rowbits_spans_changed_rows_only(self):
        old, new = Bitmap(16, 4), Bitmap(16, 4)
        new.set(3, 1, 1)
        new.set(9, 1, 1)
        new.set(0, 3, 1)
        ops = diff_rowbits(old, new)
        assert [op[:4] for op in ops] == [
            ("rowbits", 1, 3, 7), ("rowbits", 3, 0, 1)
        ]


# ---------------------------------------------------------------------------
# FrameEncoder behaviors
# ---------------------------------------------------------------------------


def _ascii_encoder(**kw):
    surface = CellSurface(10, 4)
    return FrameEncoder("ascii", 10, 4, **kw), surface


class TestFrameEncoder:
    def test_first_frame_is_a_keyframe(self):
        encoder, surface = _ascii_encoder()
        surface.put(1, 1, "X")
        data = encoder.encode([], surface)
        frame, _ = decode_frame(data)
        assert frame.keyframe and frame.ops[0][0] == "grid"
        assert encoder.keyframes_sent == 1

    def test_unchanged_flush_encodes_nothing(self):
        encoder, surface = _ascii_encoder()
        encoder.encode([], surface)
        assert encoder.encode([], surface) is None
        assert encoder.frames_sent == 1

    def test_offscreen_style_direct_write_is_repaired(self):
        # Surface mutates with NO recorded ops (what an offscreen blit
        # does): the shadow diff must still ship the change.
        encoder, surface = _ascii_encoder()
        encoder.encode([], surface)
        surface.put(4, 2, "Z")
        frame, _ = decode_frame(encoder.encode([], surface))
        assert not frame.keyframe
        assert ("cells", 2, 4, "Z", b"\x00", b"\x00") in frame.ops
        assert encoder.cell_diff_cells == 1

    def test_keyframe_interval_forces_periodic_keyframes(self):
        encoder, surface = _ascii_encoder(keyframe_interval=2)
        chars = iter("abcdefgh")
        frames = []
        for _ in range(6):
            surface.put(0, 0, next(chars))
            frames.append(decode_frame(encoder.encode([], surface))[0])
        assert [f.keyframe for f in frames] == [
            True, False, False, True, False, False
        ]

    def test_request_keyframe_and_seq_monotonic(self):
        encoder, surface = _ascii_encoder()
        first = decode_frame(encoder.encode([], surface))[0]
        encoder.request_keyframe()
        surface.put(0, 0, "q")
        second = decode_frame(encoder.encode([], surface))[0]
        assert second.keyframe and second.seq == first.seq + 1

    def test_scroll_copies_ship_verbatim_not_as_cell_storm(self):
        encoder, surface = _ascii_encoder()
        graphic = AsciiGraphic(surface)
        for x in range(10):
            surface.put(x, 3, "=")
        encoder.encode([], surface)  # keyframe over the settled state
        # One-row scroll: the whole grid shifts, then one row repaints.
        from repro.graphics import Rect
        copy_op = ("copy", 0, 0, 10, 4, 0, -1)
        graphic.device_copy_area(Rect(0, 0, 10, 4), 0, -1)
        for x in range(10):
            surface.put(x, 3, "~")
        frame, _ = decode_frame(encoder.encode([copy_op], surface))
        kinds = [op[0] for op in frame.ops]
        assert kinds[0] == "copy"
        # Only the repainted strip rides as cells — not the moved rows.
        assert encoder.cell_diff_cells == 10

    def test_raster_delta_uses_refs(self):
        encoder = FrameEncoder("raster", 8, 4)
        fb = Bitmap(8, 4)
        encoder.encode([], fb)
        ops = [("pixel", 1, 1, 1), ("pixel", 2, 1, 1)]
        fb.set(1, 1, 1)
        fb.set(2, 1, 1)
        encoder.encode(list(ops), fb)
        fb.set(3, 3, 1)
        frame, _ = decode_frame(
            encoder.encode(list(ops) + [("pixel", 3, 3, 1)], fb)
        )
        assert ("ref", 0, 2) in frame.ops
        assert encoder.ops_elided == 2

    def test_metrics_counters(self, telemetry):
        encoder, surface = _ascii_encoder()
        encoder.encode([], surface)
        surface.put(0, 0, "m")
        encoder.encode([], surface)
        counters = telemetry.snapshot()["counters"]
        assert counters["remote.frames_sent"] == 2
        assert counters["remote.keyframes_sent"] == 1
        assert counters["remote.cell_diff_cells"] == 1
        assert counters["remote.bytes_sent"] > 0


# ---------------------------------------------------------------------------
# The backend window system
# ---------------------------------------------------------------------------


class TestRemoteWindowSystem:
    def test_blit_pixels_encode_once_per_frame(self, telemetry):
        """The regression the encoder surfaced: N blits of one bitmap
        within a frame must intern to one wire bitmap."""
        sink = CaptureSink()
        ws = RemoteWindowSystem("raster", sink=sink)
        window = ws.create_window("blits", 40, 24)
        stamp = AsciiOffscreen(4, 4)  # any offscreen: we blit a Bitmap
        del stamp
        window.flush()  # settle the initial keyframe first
        bitmap = Bitmap(6, 6)
        for y in range(6):
            bitmap.set(y, y, 1)
        graphic = window.graphic()
        for i in range(8):
            graphic.draw_bitmap(bitmap, i * 4, 2)
        window.flush()
        frame, _ = decode_frame(sink.frames[-1])
        blit_payloads = {op[1] for op in frame.ops if op[0] == "blit"}
        assert len([op for op in frame.ops if op[0] == "blit"]) == 8
        assert len(blit_payloads) == 1
        # And the wire-level intern means the frame is far smaller than
        # eight copies of the pixels would be.
        assert len(sink.frames[-1]) < 8 * 36
        counters = telemetry.snapshot()["counters"]
        assert counters["wm.blit_snapshots_deduped"] == 7

    def test_resize_sends_keyframe_with_new_dims(self):
        renderer = RemoteRenderer()
        ws = RemoteWindowSystem("ascii", renderer=renderer)
        window = ws.create_window("r", 30, 8)
        window.flush()
        window.resize(44, 11)
        window.flush()
        assert (renderer.width, renderer.height) == (44, 11)
        assert renderer.surface.lines() == [" " * 44] * 11

    def test_fanout_and_late_joiner_converge(self):
        early, late = RemoteRenderer(), RemoteRenderer()
        ws = RemoteWindowSystem("ascii", renderer=early)
        window = ws.create_window("fan", 20, 5)
        graphic = window.graphic()
        graphic.draw_string(0, 0, "first")
        window.flush()
        window.attach_renderer(late)
        graphic = window.graphic()
        graphic.draw_string(0, 1, "second")
        window.flush()
        assert early.surface.lines() == late.surface.lines()
        assert late.frames_applied == 1  # joined via one keyframe
        assert late.synchronized

    def test_no_viewer_means_no_encoding_work(self):
        ws = RemoteWindowSystem("ascii")
        window = ws.create_window("idle", 20, 5)
        window.graphic().draw_string(0, 0, "unseen")
        window.flush()
        assert window._encoder.frames_sent == 0
        assert window.commands.frame == []

    def test_from_env_reads_target(self, monkeypatch):
        monkeypatch.setenv(REMOTE_TARGET_ENV, "raster")
        ws = RemoteWindowSystem.from_env()
        assert ws.target == "raster"

    def test_delta_off_is_refused(self):
        RemoteWindowSystem("ascii", delta=True)
        with pytest.raises(ValueError):
            RemoteWindowSystem("ascii", delta=False)

    @pytest.mark.parametrize("addr", ["localhost", "host:", "h:abc",
                                      ":70000"])
    def test_from_env_rejects_malformed_addr(self, monkeypatch, addr):
        monkeypatch.setenv(REMOTE_ADDR_ENV, addr)
        with pytest.raises(ValueError) as info:
            RemoteWindowSystem.from_env()
        assert REMOTE_ADDR_ENV in str(info.value)
        assert repr(addr) in str(info.value)

    def test_switch_selects_remote(self, monkeypatch):
        from repro.wm.switch import get_window_system

        monkeypatch.setenv("ANDREW_WM", "remote")
        ws = get_window_system()
        assert isinstance(ws, RemoteWindowSystem)

    def test_porting_surface_reports_six_classes(self):
        from repro.remote.backend import RemoteWindowSystem as WS

        for window_cls, graphic_cls in (
            (RemoteAsciiWindow, AsciiGraphic),
            (RemoteRasterWindow, __import__(
                "repro.wm.raster_ws", fromlist=["RasterGraphic"]
            ).RasterGraphic),
        ):
            surface = porting_surface(
                WS, window_cls, graphic_cls, AsciiOffscreen
            )
            assert set(surface) == set(PORTING_CLASSES)
            total = sum(len(v) for v in surface.values())
            assert 40 <= total <= 110, surface  # the §8 ballpark

    def test_stats_aggregate_encoders(self):
        ws = RemoteWindowSystem("ascii", sink=CaptureSink())
        window = ws.create_window("s", 10, 3)
        window.flush()
        stats = ws.stats()
        assert stats["frames_sent"] == 1
        assert stats["keyframes_sent"] == 1
        assert stats["bytes_sent"] > 0


# ---------------------------------------------------------------------------
# Direct surface writes: an offscreen blit records no ops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["ascii", "raster"])
def test_animation_frames_reach_renderer(target, telemetry):
    """``AnimationView`` pre-composes each frame off screen and
    ``copy_to``s it into the window, writing the surface without
    recording an op; the encoder's shadow diff must still ship every
    frame, so the renderer matches the window after each one."""
    from repro.components import (
        AnimationData,
        AnimationView,
        pascal_triangle_frames,
    )
    from repro.core import InteractionManager
    from tests.conformance.driver import fingerprint

    renderer = RemoteRenderer()
    ws = RemoteWindowSystem(target, renderer=renderer)
    im = InteractionManager(ws, width=30, height=8)
    view = AnimationView(AnimationData(pascal_triangle_frames(), period=1))
    im.set_child(view)
    im.process_events()
    assert fingerprint(renderer) == fingerprint(im.window)
    view.start()
    shown = []
    for _ in range(view.data.frame_count):   # the last tick wraps to 0
        im.tick(1)
        im.process_events()
        shown.append(view.current)
        assert fingerprint(renderer) == fingerprint(im.window), shown
    assert shown == [1, 2, 3, 4, 0]
    assert renderer.resyncs == 0
    assert telemetry.counter("wm.blits") == view.draw_count


# ---------------------------------------------------------------------------
# Server fan-out
# ---------------------------------------------------------------------------


def _give_editor(session):
    """A focused text view so submitted keystrokes render."""
    from repro.components import TextData, TextView

    view = TextView(TextData(""))
    session.im.set_child(view)
    session.im.set_focus(view)
    return view


class TestServerFanout:
    def test_one_session_many_viewers_byte_identical(self):
        from repro.server import (
            ServerLoop,
            add_remote_session,
            attach_viewer,
            session_window,
        )

        loop = ServerLoop()
        viewers = [RemoteRenderer() for _ in range(3)]
        session = add_remote_session(loop, renderer=viewers[0],
                                     width=40, height=10)
        _give_editor(session)
        session.submit_text("shared screen")
        loop.run_until_idle()
        for late in viewers[1:]:
            attach_viewer(session, late)
        session.submit_text(" for everyone")
        loop.run_until_idle()
        window = session_window(session)
        window.flush()
        expected = window.snapshot_lines()
        for i, viewer in enumerate(viewers):
            assert viewer.surface.lines() == expected, f"viewer {i}"

    def test_two_remote_sessions_are_independent(self):
        from repro.server import ServerLoop, add_remote_session, session_window

        loop = ServerLoop()
        r_a, r_b = RemoteRenderer(), RemoteRenderer()
        a = add_remote_session(loop, session_id="a", renderer=r_a,
                               width=30, height=6)
        b = add_remote_session(loop, session_id="b", renderer=r_b,
                               width=30, height=6)
        _give_editor(a)
        _give_editor(b)
        a.submit_text("alpha")
        b.submit_text("beta")
        loop.run_until_idle()
        for session in (a, b):
            session_window(session).flush()
        assert r_a.surface.lines() == session_window(a).snapshot_lines()
        assert r_b.surface.lines() == session_window(b).snapshot_lines()
        assert r_a.surface.lines() != r_b.surface.lines()
