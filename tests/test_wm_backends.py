"""Tests for the two window systems and the porting layer (section 8)."""

import pytest

from repro.class_system import DynamicLoadError
from repro.graphics import FontDesc, Rect
from repro.wm import (
    AsciiWindowSystem,
    Cursor,
    MouseAction,
    MouseButton,
    PORTING_CLASSES,
    RasterWindowSystem,
    UpdateEvent,
    available_window_systems,
    get_window_system,
    porting_surface,
    register_window_system,
)
from repro.wm.ascii_ws import AsciiGraphic, AsciiOffscreen, AsciiWindow
from repro.wm.raster_ws import RasterGraphic, RasterOffscreen, RasterWindow


class TestAsciiBackend:
    def test_window_creation_and_snapshot(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        lines = window.snapshot_lines()
        assert len(lines) == 4 and all(len(l) == 10 for l in lines)

    def test_graphic_draws_to_window(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        window.graphic().draw_string(1, 1, "hi")
        assert "hi" in window.snapshot_lines()[1]

    def test_font_metrics_are_cell_sized(self, ascii_ws):
        metrics = ascii_ws.font_metrics(FontDesc("andy", 36, ("bold",)))
        assert metrics.char_width == 1 and metrics.height == 1

    def test_offscreen_copy_to(self, ascii_ws):
        window = ascii_ws.create_window("t", 12, 4)
        off = ascii_ws.create_offscreen(6, 2)
        off.graphic().draw_string(0, 0, "stamp")
        off.copy_to(window.graphic(), 3, 1)
        assert "stamp" in window.snapshot_lines()[1]

    def test_resize_recreates_surface_and_queues_events(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        window.resize(20, 6)
        assert len(window.snapshot_lines()) == 6
        events = []
        while True:
            event = window.next_event()
            if event is None:
                break
            events.append(event)
        assert any(isinstance(e, UpdateEvent) and e.full for e in events)


class TestRasterBackend:
    def test_text_produces_pixels(self, raster_ws):
        window = raster_ws.create_window("t", 100, 20)
        window.graphic().draw_string(0, 0, "HELLO")
        assert window.framebuffer.ink_count() > 0

    def test_font_scale_grows_with_point_size(self, raster_ws):
        small = raster_ws.font_metrics(FontDesc("andy", 12))
        large = raster_ws.font_metrics(FontDesc("andy", 36))
        assert large.char_width > small.char_width
        assert large.height > small.height

    def test_bold_double_strikes(self, raster_ws):
        window = raster_ws.create_window("t", 60, 12)
        window.graphic().draw_string(0, 0, "I")
        window.flush()
        plain_ink = window.framebuffer.ink_count()
        window.framebuffer.clear()
        graphic = window.graphic()
        graphic.set_font(FontDesc("andy", 12, ("bold",)))
        graphic.draw_string(0, 0, "I")
        window.flush()
        assert window.framebuffer.ink_count() > plain_ink

    def test_request_counter_tallies(self, raster_ws):
        window = raster_ws.create_window("t", 40, 10)
        graphic = window.graphic()
        graphic.fill_rect(Rect(0, 0, 5, 5), 1)
        graphic.draw_string(0, 0, "x")
        stats = raster_ws.stats()
        assert stats["fill_rect"] >= 1
        assert stats["draw_text"] >= 1
        assert stats["requests_total"] >= 2

    def test_snapshot_lines_downsample(self, raster_ws):
        window = raster_ws.create_window("t", 60, 16)
        window.graphic().fill_rect(Rect(0, 0, 60, 16), 1)
        lines = window.snapshot_lines()
        assert all(set(line) == {"#"} for line in lines)

    def test_offscreen_copy(self, raster_ws):
        window = raster_ws.create_window("t", 20, 10)
        off = raster_ws.create_offscreen(4, 4)
        off.graphic().fill_rect(Rect(0, 0, 4, 4), 1)
        off.copy_to(window.graphic(), 2, 2)
        assert window.framebuffer.get(3, 3) == 1


class TestClippedBlit:
    """``OffscreenWindow.copy_to``: copy semantics, clipped to the
    target, on both backends."""

    def test_ascii_copy_to_respects_clip(self, ascii_ws):
        off = ascii_ws.create_offscreen(4, 3)
        graphic = off.graphic()
        for y in range(3):
            graphic.draw_string(0, y, "XXXX")
        window = ascii_ws.create_window("t", 10, 5)
        target = window.graphic()
        target.clip = Rect(1, 1, 2, 2)
        off.copy_to(target, 0, 0)
        for y in range(5):
            for x in range(10):
                inside = 1 <= x < 3 and 1 <= y < 3
                assert (window.surface.char_at(x, y) == "X") is inside

    def test_ascii_copy_is_faithful(self, ascii_ws):
        """Copy semantics: chars, inverse and bold all transfer."""
        off = ascii_ws.create_offscreen(3, 1)
        off.surface.put(0, 0, "a", inverse=1, bold=0)
        off.surface.put(1, 0, " ", inverse=0, bold=0)
        off.surface.put(2, 0, "c", inverse=0, bold=1)
        window = ascii_ws.create_window("t", 5, 2)
        window.graphic().fill_rect(Rect(0, 0, 5, 2), 1)  # pre-ink
        off.copy_to(window.graphic(), 1, 0)
        surface = window.surface
        assert surface.char_at(1, 0) == "a" and surface.inverse_at(1, 0)
        assert surface.char_at(2, 0) == " "  # background copied over ink
        assert not surface.inverse_at(2, 0)
        assert surface.char_at(3, 0) == "c" and surface.bold_at(3, 0)

    def test_raster_copy_to_respects_clip(self, raster_ws):
        off = raster_ws.create_offscreen(4, 4)
        off.bitmap.fill_rect(Rect(0, 0, 4, 4), 1)
        window = raster_ws.create_window("t", 8, 8)
        target = window.graphic()
        target.clip = Rect(2, 2, 2, 2)
        off.copy_to(target, 1, 1)
        fb = window.framebuffer
        for y in range(8):
            for x in range(8):
                inside = 2 <= x < 4 and 2 <= y < 4
                assert fb.get(x, y) == (1 if inside else 0)

    def test_raster_copy_clears_background(self, raster_ws):
        """Copy semantics: the surface's 0 pixels land too (not OR)."""
        off = raster_ws.create_offscreen(4, 4)  # all zero
        window = raster_ws.create_window("t", 8, 8)
        window.framebuffer.fill_rect(Rect(0, 0, 8, 8), 1)
        off.copy_to(window.graphic(), 2, 2)
        fb = window.framebuffer
        for y in range(8):
            for x in range(8):
                inside = 2 <= x < 6 and 2 <= y < 6
                assert fb.get(x, y) == (0 if inside else 1)


class TestEventQueue:
    def test_inject_click_produces_down_up(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        window.inject_click(3, 2)
        first = window.next_event()
        second = window.next_event()
        assert first.action == MouseAction.DOWN
        assert second.action == MouseAction.UP
        assert first.point.x == 3 and first.point.y == 2

    def test_inject_keys_translates_newline(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        window.inject_keys("a\n")
        assert window.next_event().char == "a"
        assert window.next_event().char == "Return"

    def test_inject_drag_sequence(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        window.inject_drag(1, 1, 5, 3)
        actions = []
        while window.pending_events():
            actions.append(window.next_event().action)
        assert actions == [MouseAction.DOWN, MouseAction.DRAG, MouseAction.UP]

    def test_events_fifo(self, ascii_ws):
        window = ascii_ws.create_window("t", 10, 4)
        window.inject_key("a")
        window.inject_key("b")
        assert window.next_event().char == "a"
        assert window.next_event().char == "b"
        assert window.next_event() is None


class TestSwitch:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("ANDREW_WM", "raster")
        assert isinstance(get_window_system(), RasterWindowSystem)
        monkeypatch.setenv("ANDREW_WM", "ascii")
        assert isinstance(get_window_system(), AsciiWindowSystem)

    def test_explicit_name_overrides_env(self, monkeypatch):
        monkeypatch.setenv("ANDREW_WM", "ascii")
        assert isinstance(get_window_system("raster"), RasterWindowSystem)

    def test_default_is_ascii(self, monkeypatch):
        monkeypatch.delenv("ANDREW_WM", raising=False)
        assert isinstance(get_window_system(), AsciiWindowSystem)

    def test_unknown_backend_reports_known_ones(self):
        with pytest.raises(DynamicLoadError) as excinfo:
            get_window_system("betamax")
        assert "ascii" in str(excinfo.value)

    def test_registering_third_backend(self):
        register_window_system("testws", AsciiWindowSystem)
        try:
            assert "testws" in available_window_systems()
            assert isinstance(get_window_system("testws"), AsciiWindowSystem)
        finally:
            from repro.wm.switch import _FACTORIES

            _FACTORIES.pop("testws", None)

    def test_plugin_window_system_loads_dynamically(self, tmp_path):
        plugin = tmp_path / "plasmaws.py"
        plugin.write_text(
            "from repro.wm.ascii_ws import AsciiWindowSystem\n"
            "class PlasmaWS(AsciiWindowSystem):\n"
            "    atk_name = 'plasmaws'\n"
            "    name = 'plasma'\n"
        )
        from repro.class_system import default_loader, unregister

        loader = default_loader()
        loader.append_path(tmp_path)
        try:
            ws = get_window_system("plasma")
            assert ws.name == "plasma"
        finally:
            loader.remove_path(tmp_path)
            unregister("plasmaws")
            from repro.wm.switch import _FACTORIES

            _FACTORIES.pop("plasma", None)


class TestPortingSurface:
    def test_six_classes_reported(self):
        surface = porting_surface(
            AsciiWindowSystem, AsciiWindow, AsciiGraphic, AsciiOffscreen
        )
        assert set(surface) == set(PORTING_CLASSES)

    def test_routine_count_is_in_the_paper_ballpark(self):
        for args in (
            (AsciiWindowSystem, AsciiWindow, AsciiGraphic, AsciiOffscreen),
            (RasterWindowSystem, RasterWindow, RasterGraphic, RasterOffscreen),
        ):
            surface = porting_surface(*args)
            total = sum(len(v) for v in surface.values())
            # "approximately 70 routines"
            assert 40 <= total <= 110, surface

    def test_graphics_routines_dominate(self):
        surface = porting_surface(
            AsciiWindowSystem, AsciiWindow, AsciiGraphic, AsciiOffscreen
        )
        # "about 50 routines are normally simple transformations to the
        # graphics layer"
        assert len(surface["Graphic"]) >= len(surface["Cursor"])
        assert len(surface["Graphic"]) >= len(surface["OffScreenWindow"])


def test_cursor_equality():
    assert Cursor("arrow") == Cursor("arrow")
    assert Cursor("arrow") != Cursor("ibeam")
