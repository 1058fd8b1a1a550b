"""Unit tests for the scroll shift-blit machinery.

Covers the layers one by one: the backend ``copy_area`` device op
(both surfaces, both shift directions, attribute planes, containment
within the shifted area), remote command-buffer record/replay, the
``want_scroll`` accept/fallback rules on the interaction manager,
scroll composition, the telemetry counters, and the two satellite
regressions (scrolling must not dirty text layout; the scroll-bar thumb
must reach the bottom exactly).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.components import ListView, ScrollBar, TextView
from repro.components.scrollbar import Scrollable
from repro.components.text.textdata import TextData
from repro.core import InteractionManager
from repro.core.view import View
from repro.graphics import Rect
from repro.remote import RemoteWindowSystem
from repro.wm import AsciiWindowSystem, RasterWindowSystem
from tests.conformance.driver import without_copy_area


@pytest.fixture
def telemetry():
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    yield obs.registry
    obs.configure(metrics=was, reset_data=True)


def _build_text_app(ws, width=60, height=18, lines=60):
    im = InteractionManager(ws, title="scroll", width=width, height=height)
    view = TextView(TextData("\n".join(f"line {i}" for i in range(lines))))
    im.set_child(view)
    im.process_events()
    return im, view


# ---------------------------------------------------------------------------
# Device op: copy_area on both backends
# ---------------------------------------------------------------------------


class TestAsciiCopyArea:
    def _window(self, ws=None):
        ws = ws or AsciiWindowSystem()
        window = ws.create_window("t", 20, 10)
        return window

    def test_shift_up_moves_chars_and_attrs(self):
        window = self._window()
        g = window.graphic()
        g.draw_string(0, 3, "hello")
        g.invert_rect(Rect(0, 3, 5, 1))
        g.copy_area(Rect(0, 1, 20, 5), 0, -2)
        window.flush()
        surface = window.surface
        row = "".join(surface._chars[1 * 20:1 * 20 + 5])
        assert row == "hello"
        assert surface._inverse[1 * 20] == 1
        # Row 3 is a destination too: it received (blank) row 5.  The
        # exposed strip is damage for the repaint, never a device job.
        assert "".join(surface._chars[3 * 20:3 * 20 + 5]) == "     "

    def test_shift_down_uses_reverse_row_order(self):
        window = self._window()
        g = window.graphic()
        for i in range(6):
            g.draw_string(0, i, str(i))
        g.copy_area(Rect(0, 0, 20, 6), 0, 3)
        window.flush()
        surface = window.surface
        got = [surface._chars[y * 20] for y in range(6)]
        # dst rows 3..5 receive src rows 0..2 even though they overlap.
        assert got[3:6] == ["0", "1", "2"]

    def test_copy_never_writes_outside_the_area(self):
        window = self._window()
        g = window.graphic()
        g.draw_string(0, 0, "header")
        g.draw_string(0, 4, "body")
        g.copy_area(Rect(0, 2, 20, 6), 0, -3)
        window.flush()
        surface = window.surface
        # Rows 0-1 are outside the scrolled area: the shift must not
        # have sourced row 4 into row 1 (dst is clamped to the area).
        assert "".join(surface._chars[0:6]) == "header"
        assert surface._chars[1 * 20] == " "


class TestRasterCopyArea:
    def test_shift_up_moves_pixels(self):
        ws = RasterWindowSystem()
        window = ws.create_window("t", 30, 20)
        g = window.graphic()
        g.fill_rect(Rect(2, 10, 5, 2), 1)
        g.copy_area(Rect(0, 4, 30, 12), 0, -4)
        window.flush()
        bits = window.framebuffer._bits
        assert bits[6 * 30 + 2] == 1
        assert bits[7 * 30 + 6] == 1

    def test_overlapping_shift_down(self):
        ws = RasterWindowSystem()
        window = ws.create_window("t", 10, 10)
        g = window.graphic()
        g.fill_rect(Rect(0, 0, 10, 1), 1)
        g.copy_area(Rect(0, 0, 10, 8), 0, 2)
        window.flush()
        bits = window.framebuffer._bits
        assert bits[2 * 10] == 1      # moved copy
        assert bits[0] == 1           # source untouched
        assert bits[4 * 10] == 0      # only dy rows moved


def test_batch_records_and_replays_copy_area(telemetry):
    """A remote window shifts its replica at once and logs the shift
    once, as the frame's one copy op."""
    for target in ("ascii", "raster"):
        obs.registry.reset()
        window = RemoteWindowSystem(target).create_window("t", 20, 10)
        g = window.graphic()
        g.fill_rect(Rect(0, 5, 3, 1), 1)
        window.flush()

        def inked(y):
            if target == "ascii":
                return "".join(window.surface._chars[y * 20:y * 20 + 3])
            return bytes(window.framebuffer._bits[y * 20:y * 20 + 3])

        row = inked(5)
        assert inked(1) != row
        g.copy_area(Rect(0, 0, 20, 10), 0, -4)
        assert inked(1) == row
        assert telemetry.counter(f"wm.{target}.copy_area") == 1
        assert window.commands.frame == [("copy", 0, 4, 20, 6, 0, -4)]
        window.flush()
        assert telemetry.counter(f"wm.{target}.copy_area") == 1


# ---------------------------------------------------------------------------
# want_scroll: accept and fallback rules
# ---------------------------------------------------------------------------


class TestWantScroll:
    def test_port_without_copy_area_falls_back(self, ascii_ws):
        with without_copy_area():
            im, view = _build_text_app(ascii_ws)
            assert view.want_scroll(view.local_bounds, 2) is False

    def test_move_larger_than_area_falls_back(self, ascii_ws):
        im, view = _build_text_app(ascii_ws)
        assert view.want_scroll(view.local_bounds, view.height) is False
        assert view.want_scroll(view.local_bounds, -view.height - 3) is False

    def test_zero_move_falls_back(self, ascii_ws):
        im, view = _build_text_app(ascii_ws)
        assert view.want_scroll(view.local_bounds, 0) is False

    def test_pending_damage_in_area_falls_back(self, ascii_ws):
        im, view = _build_text_app(ascii_ws)
        view.want_update(Rect(0, 4, 10, 2))  # stale pixels must not move
        assert view.want_scroll(view.local_bounds, 2) is False

    def test_accepts_and_posts_only_the_strip(self, ascii_ws):
        im, view = _build_text_app(ascii_ws)
        assert view.want_scroll(view.local_bounds, -3) is True
        pending = im.updates.pending_rect(view)
        assert pending == Rect(0, view.height - 3, view.width, 3)
        im.flush_updates()

    def test_shift_produces_correct_bytes(self, ascii_ws):
        im, view = _build_text_app(ascii_ws)
        view.set_scroll_pos(7)
        im.process_events()
        lines = im.snapshot_lines()
        assert lines[0].startswith("line 7")
        assert lines[10].startswith("line 17")

    def test_composed_scrolls_in_one_flush(self, ascii_ws, telemetry):
        im, view = _build_text_app(ascii_ws)
        view.set_scroll_pos(2)
        view.set_scroll_pos(5)   # composes with the queued shift
        im.process_events()
        assert telemetry.counter("view.scroll_blits") == 1
        assert im.snapshot_lines()[0].startswith("line 5")

    def test_direction_flip_falls_back_to_area_damage(self, ascii_ws):
        im, view = _build_text_app(ascii_ws)
        view.set_scroll_pos(6)
        im.process_events()
        view.set_scroll_pos(9)
        view.set_scroll_pos(3)   # sign flip: cannot compose
        im.process_events()
        assert im.snapshot_lines()[0].startswith("line 3")

    def test_raster_listview_does_not_shift(self, raster_ws, telemetry):
        # List rows are 1 unit tall but raster glyphs are taller:
        # shifting would interleave glyph halves, so the probe refuses.
        im = InteractionManager(raster_ws, title="l", width=60, height=40)
        view = ListView([f"item {i}" for i in range(40)])
        im.set_child(view)
        im.process_events()
        assert view.scroll_blit_ok() is False
        view.set_scroll_pos(5)
        im.process_events()
        assert telemetry.counter("view.scroll_blits") == 0

    def test_raster_textview_does_shift(self, raster_ws, telemetry):
        # Text lines occupy disjoint glyph-height bands, so the text
        # view may shift even on the raster backend.
        im = InteractionManager(raster_ws, title="t", width=80, height=50)
        view = TextView(TextData("\n".join(f"line {i}" for i in range(40))))
        im.set_child(view)
        im.process_events()
        obs.registry.reset()
        # Positions snap to line starts; two lines' worth of device
        # rows survives the snap yet stays well inside the viewport.
        line_height = view.scroll_total() // 40
        view.set_scroll_pos(2 * line_height)
        im.process_events()
        assert obs.registry.counter("view.scroll_blits") >= 1


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def test_scroll_counters(ascii_ws, telemetry):
    im, view = _build_text_app(ascii_ws)
    view.set_scroll_pos(3)
    im.process_events()
    assert telemetry.counter("view.scroll_blits") == 1
    assert telemetry.counter("view.rows_repainted") == 3
    saved = (view.height - 3) * view.width
    assert telemetry.counter("im.scroll_area_saved") == saved


def test_fallback_counts_full_area_rows(ascii_ws, telemetry):
    with without_copy_area():
        im, view = _build_text_app(ascii_ws)
        view.set_scroll_pos(3)
        im.process_events()
    assert telemetry.counter("view.scroll_blits") == 0
    assert telemetry.counter("view.rows_repainted") == view.height


# ---------------------------------------------------------------------------
# Satellite: scrolling must not dirty text layout
# ---------------------------------------------------------------------------


def test_scroll_sweep_keeps_layout_counters_flat(ascii_ws, telemetry):
    im, view = _build_text_app(ascii_ws, lines=120)
    im.process_events()
    obs.registry.reset()
    for pos in (5, 17, 3, 60, 59, 0, 104, 30):
        view.set_scroll_pos(pos)
        im.process_events()
    assert telemetry.counter("text.layout_full") == 0
    assert telemetry.counter("text.layout_incremental") == 0
    assert view._needs_layout is False


def test_follow_caret_does_not_relayout(ascii_ws, telemetry):
    im, view = _build_text_app(ascii_ws, lines=120)
    im.process_events()
    obs.registry.reset()
    view.set_dot(len(view.data.text()))  # jump to the end: view follows
    im.process_events()
    assert view.scroll_pos() > 0
    assert telemetry.counter("text.layout_full") == 0
    assert telemetry.counter("text.layout_incremental") == 0


# ---------------------------------------------------------------------------
# Satellite: the thumb reaches the bottom exactly
# ---------------------------------------------------------------------------


class _FakeBody(View, Scrollable):
    def __init__(self, total, visible):
        super().__init__()
        self._total, self._visible, self.pos = total, visible, 0

    def scroll_total(self):
        return self._total

    def scroll_pos(self):
        return self.pos

    def scroll_visible(self):
        return self._visible

    def apply_scroll_pos(self, pos):
        self.pos = pos

    def want_update(self, rect=None):
        pass


def test_pos_for_row_reaches_exact_bottom():
    body = _FakeBody(total=100, visible=20)
    bar = ScrollBar(body)
    bar.set_bounds(Rect(0, 0, 2, 16))
    assert bar._pos_for_row(0) == 0
    assert bar._pos_for_row(15) == 80          # total - visible, exactly
    rows = [bar._pos_for_row(r) for r in range(16)]
    assert rows == sorted(rows)                # monotone track

def test_pos_for_row_short_document_keeps_proportional_reach():
    body = _FakeBody(total=10, visible=16)     # fits: classic ATK reach
    bar = ScrollBar(body)
    bar.set_bounds(Rect(0, 0, 2, 16))
    assert bar._pos_for_row(0) == 0
    assert bar._pos_for_row(15) == 9
    assert bar._pos_for_row(8) > 0


def test_thumb_drag_to_last_track_row_hits_bottom(ascii_ws):
    im = InteractionManager(ascii_ws, title="bar", width=40, height=16)
    view = ListView([f"item {i}" for i in range(100)])
    bar = ScrollBar(view)
    im.set_child(bar)
    im.process_events()
    im.window.inject_drag(0, 2, 0, bar.height - 1)
    im.process_events()
    assert view.scroll_pos() == view.scroll_total() - view.scroll_visible()
