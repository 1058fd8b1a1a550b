"""Detail tests for backend internals: cell surface, raster framebuffer,
printer pages, the interaction manager's window plumbing."""

import pytest

from repro.core import InteractionManager
from repro.components import Label, TextData, TextView
from repro.graphics import FontDesc, Rect
from repro.wm import PrinterJob
from repro.wm.ascii_ws import CellSurface
from repro.wm.printer import PAGE_HEIGHT, PAGE_WIDTH


class TestCellSurface:
    def test_out_of_bounds_writes_ignored(self):
        surface = CellSurface(3, 2)
        surface.put(-1, 0, "x")
        surface.put(5, 5, "x")
        assert all(line == "   " for line in surface.lines())

    def test_attribute_preservation_flags(self):
        surface = CellSurface(3, 1)
        surface.put(0, 0, "a", bold=1)
        surface.put(0, 0, "b")  # -1 default: attributes unchanged
        assert surface.bold_at(0, 0)
        assert surface.char_at(0, 0) == "b"

    def test_inverse_blank_prints_percent(self):
        surface = CellSurface(2, 1)
        surface.toggle_inverse(0, 0)
        assert surface.lines()[0] == "% "

    def test_chars_out_of_bounds_read_as_blank(self):
        surface = CellSurface(1, 1)
        assert surface.char_at(9, 9) == " "
        assert not surface.inverse_at(9, 9)


class TestRasterDetails:
    def test_metrics_consistent_between_ws_and_graphic(self, raster_ws):
        window = raster_ws.create_window("t", 100, 40)
        desc = FontDesc("andy", 12)
        assert (
            raster_ws.font_metrics(desc).char_width
            == window.graphic().font_metrics(desc).char_width
        )

    def test_invert_rect_on_framebuffer(self, raster_ws):
        window = raster_ws.create_window("t", 10, 10)
        graphic = window.graphic()
        graphic.fill_rect(Rect(0, 0, 4, 4), 1)
        graphic.invert_rect(Rect(0, 0, 10, 10))
        assert window.framebuffer.get(0, 0) == 0
        assert window.framebuffer.get(9, 9) == 1

    def test_resize_replaces_framebuffer(self, raster_ws):
        window = raster_ws.create_window("t", 10, 10)
        window.graphic().fill_rect(Rect(0, 0, 10, 10), 1)
        window.resize(20, 20)
        assert window.framebuffer.ink_count() == 0
        assert window.framebuffer.width == 20


class TestPrinterPages:
    def test_default_page_dimensions(self):
        job = PrinterJob()
        page = job.new_page()
        assert page.bounds == Rect(0, 0, PAGE_WIDTH, PAGE_HEIGHT)

    def test_render_empty_job(self):
        assert PrinterJob().render() == ""

    def test_banner_counts_pages(self):
        job = PrinterJob(title="t")
        job.new_page()
        job.new_page()
        rendered = job.render()
        assert "page 1 of 2" in rendered
        assert "page 2 of 2" in rendered

    def test_page_lines_raw_grid(self):
        job = PrinterJob(page_width=5, page_height=2)
        page = job.new_page()
        page.draw_string(0, 0, "ab")
        assert job.page_lines(0) == ["ab   ", "     "]


class TestWindowPlumbing:
    def test_im_title_reaches_window(self, ascii_ws):
        im = InteractionManager(ascii_ws, title="my window",
                                width=10, height=3)
        assert im.window.title == "my window"
        im.window.set_title("renamed")
        assert im.window.title == "renamed"

    def test_close_unmaps(self, ascii_ws):
        im = InteractionManager(ascii_ws, width=10, height=3)
        im.close()
        assert not im.window.mapped

    def test_multiple_windows_one_window_system(self, ascii_ws):
        ims = [InteractionManager(ascii_ws, width=10, height=3)
               for _ in range(3)]
        assert len(ascii_ws.windows) == 3
        for index, im in enumerate(ims):
            im.set_child(Label(f"w{index}"))
            im.redraw()
            assert f"w{index}" in "\n".join(im.snapshot_lines())

    def test_set_child_replaces_previous(self, ascii_ws):
        im = InteractionManager(ascii_ws, width=12, height=3)
        first = Label("first")
        second = Label("second")
        im.set_child(first)
        im.set_child(second)
        im.redraw()
        snapshot = "\n".join(im.snapshot_lines())
        assert "second" in snapshot and "first" not in snapshot
        assert first.interaction_manager() is None

    def test_events_processed_counter(self, ascii_ws):
        im = InteractionManager(ascii_ws, width=10, height=3)
        im.set_child(TextView(TextData()))
        im.window.inject_keys("abc")
        im.process_events()
        assert im.events_processed == 3
