"""Tests for the text view (WYSLRN editor, paper section 2)."""

import pytest

from repro import obs
from repro.components.table import TableData
from repro.components.text import TextData, TextView
from repro.components.text.textview import _TextLine
from repro.core import InteractionManager
from repro.graphics import Point, Rect
from repro.wm import AsciiWindowSystem, RasterWindowSystem
from tests.conformance.driver import fingerprint


@pytest.fixture
def editor(make_im):
    im = make_im(width=40, height=10)
    data = TextData()
    view = TextView(data)
    im.set_child(view)
    im.process_events()
    return im, view, data


class TestTyping:
    def test_self_insert(self, editor):
        im, view, data = editor
        im.window.inject_keys("hello")
        im.process_events()
        assert data.text() == "hello"
        assert view.dot == 5

    def test_return_inserts_newline(self, editor):
        im, view, data = editor
        im.window.inject_keys("a\nb")
        im.process_events()
        assert data.text() == "a\nb"

    def test_backspace(self, editor):
        im, view, data = editor
        im.window.inject_keys("abc")
        im.window.inject_key("Backspace")
        im.process_events()
        assert data.text() == "ab"

    def test_backspace_at_start_is_noop(self, editor):
        im, view, data = editor
        im.window.inject_key("Backspace")
        im.process_events()
        assert data.text() == ""

    def test_ctrl_d_deletes_forward(self, editor):
        im, view, data = editor
        im.window.inject_keys("abc")
        im.process_events()
        view.set_dot(0)
        im.window.inject_key("d", ctrl=True)
        im.process_events()
        assert data.text() == "bc"

    def test_read_only_blocks_edits(self, make_im):
        im = make_im()
        view = TextView(TextData("fixed"), read_only=True)
        im.set_child(view)
        im.window.inject_keys("nope")
        im.process_events()
        assert view.data.text() == "fixed"

    def test_line_motion_commands(self, editor):
        im, view, data = editor
        im.window.inject_keys("first\nsecond")
        im.window.inject_key("a", ctrl=True)
        im.process_events()
        assert view.dot == 6  # start of "second"
        im.window.inject_key("e", ctrl=True)
        im.process_events()
        assert view.dot == 12

    def test_kill_line_and_yank(self, editor):
        im, view, data = editor
        im.window.inject_keys("kill me\nkeep")
        im.process_events()
        view.set_dot(0)
        im.window.inject_key("k", ctrl=True)
        im.process_events()
        assert data.text() == "\nkeep"
        view.set_dot(data.length)
        im.window.inject_key("y", ctrl=True)
        im.process_events()
        assert data.text() == "\nkeepkill me"

    def test_arrow_navigation(self, editor):
        im, view, data = editor
        im.window.inject_keys("ab\ncd")
        im.window.inject_key("Up")
        im.process_events()
        assert view.dot <= 2
        im.window.inject_key("Left")
        before = view.dot
        im.process_events()
        assert view.dot == max(0, before - 1)


class TestMouse:
    def test_click_places_caret(self, editor):
        im, view, data = editor
        data.insert(0, "hello world")
        im.process_events()
        im.window.inject_click(6, 0)
        im.process_events()
        assert view.dot == 6

    def test_click_past_line_end_goes_to_line_end(self, editor):
        im, view, data = editor
        data.insert(0, "hi\nthere")
        im.process_events()
        im.window.inject_click(30, 0)
        im.process_events()
        assert view.dot == 2

    def test_drag_selects(self, editor):
        im, view, data = editor
        data.insert(0, "select some text")
        im.process_events()
        im.window.inject_drag(0, 0, 6, 0)
        im.process_events()
        assert view.selection() == (0, 6)
        assert view.selected_text() == "select"

    def test_typing_replaces_selection(self, editor):
        im, view, data = editor
        data.insert(0, "aaa bbb")
        im.process_events()
        im.window.inject_drag(0, 0, 3, 0)
        im.window.inject_keys("X")
        im.process_events()
        assert data.text() == "X bbb"


class TestWrapAndScroll:
    def test_long_paragraph_wraps_to_width(self, make_im):
        im = make_im(width=20, height=5)
        view = TextView(TextData("x" * 50))
        im.set_child(view)
        im.redraw()
        view.ensure_layout()
        assert view.scroll_total() >= 3

    def test_scroll_interface(self, make_im):
        im = make_im(width=20, height=4)
        view = TextView(TextData("\n".join(f"line {i}" for i in range(20))))
        im.set_child(view)
        im.process_events()
        assert view.scroll_visible() == 4
        view.set_scroll_pos(10)
        snapshot = "\n".join(im.snapshot_lines())
        im.redraw()
        snapshot = "\n".join(im.snapshot_lines())
        assert "line 10" in snapshot
        assert "line 0" not in snapshot

    def test_caret_motion_scrolls_into_view(self, make_im):
        im = make_im(width=20, height=4)
        data = TextData("\n".join(f"line {i}" for i in range(20)))
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        view.set_dot(data.length)
        im.redraw()
        assert "line 19" in "\n".join(im.snapshot_lines())


class TestStylesInView:
    def test_menu_applies_style_to_selection(self, editor):
        im, view, data = editor
        data.insert(0, "make bold")
        im.process_events()
        im.window.inject_drag(5, 0, 9, 0)
        im.window.inject_menu("Style", "Bold")
        im.process_events()
        assert any(s.style.name == "bold" for s in data.spans)

    def test_font_for_styles_combines(self, editor):
        _, view, _ = editor
        from repro.components.text.styles import style_named

        font = view.font_for_styles(
            [style_named("bold"), style_named("bigger")]
        )
        assert font.bold
        assert font.size == view.base_font.size + 4

    def test_centered_text_draws_centered(self, make_im):
        im = make_im(width=21, height=3)
        data = TextData("mid")
        data.add_style(0, 3, "center")
        im.set_child(TextView(data))
        im.redraw()
        line = im.snapshot_lines()[0]
        assert line.strip("% ") in ("mid",)
        assert line.index("mid") > 4


class TestEmbeddedViews:
    def test_embedded_table_gets_child_view(self, make_im):
        im = make_im(width=40, height=12)
        data = TextData("above\n")
        table = TableData(2, 2)
        table.set_cell(0, 0, 7)
        data.append_object(table, "spread")
        view = TextView(data)
        im.set_child(view)
        im.redraw()
        assert len(view.children) == 1
        child = view.children[0]
        assert child.dataobject is table
        assert "7" in "\n".join(im.snapshot_lines())

    def test_unknown_view_type_gets_placeholder(self, make_im):
        im = make_im(width=40, height=8)
        data = TextData()
        data.append_object(TableData(1, 1), "nonexistentview")
        view = TextView(data)
        im.set_child(view)
        im.redraw()
        assert "<table>" in "\n".join(im.snapshot_lines())

    def test_deleting_embed_removes_child_view(self, make_im):
        im = make_im(width=40, height=12)
        data = TextData("x")
        data.append_object(TableData(1, 1))
        view = TextView(data)
        im.set_child(view)
        im.redraw()
        assert len(view.children) == 1
        data.delete(1, 1)
        im.redraw()
        assert len(view.children) == 0

    def test_mouse_routes_into_embedded_view(self, make_im):
        im = make_im(width=40, height=12)
        data = TextData()
        table = TableData(3, 2)
        data.append_object(table, "spread")
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        im.redraw()
        child = view.children[0]
        rect = child.rect_in_window()
        # Click a data cell inside the embedded table view.
        im.window.inject_click(rect.left + 5, rect.top + 2)
        im.process_events()
        assert im.focus is child

    def test_insert_object_via_view_moves_caret(self, editor):
        im, view, data = editor
        view.insert_object(TableData(1, 1))
        assert view.dot == 1
        assert data.embeds()[0].pos == 0


def _sentinel_rows(im, action):
    """Run ``action``, flush, and return the rows that kept a sentinel.

    A ``?`` goes in the last column of every row first: text never
    reaches that column (lines wrap one cell short of the width), so a
    repainted row loses its sentinel, while a row the flush left alone
    keeps it, and a shifted row carries it along.  The surviving
    sentinels are blanked again, so the surface can be compared with a
    full redraw afterwards.
    """
    surface = im.window.surface
    last = surface.width - 1
    for row in range(surface.height):
        surface.put(last, row, "?")
    action()
    im.flush_updates()
    kept = [row for row in range(surface.height)
            if surface.char_at(last, row) == "?"]
    for row in kept:
        surface.put(last, row, " ")
    return kept


def _matches_full_redraw(im):
    live = fingerprint(im.window)
    im.redraw()
    return live == fingerprint(im.window)


class TestIncrementalRepair:
    """Edits repaint the rows the splice changed and shift the rows
    below it when the change moved them."""

    @pytest.fixture
    def lined(self, make_im):
        im = make_im(width=30, height=8)
        data = TextData("\n".join(f"line {i}" for i in range(12)))
        view = TextView(data)
        im.set_child(view)
        im.set_focus(view)
        im.process_events()
        im.redraw()
        return im, view, data

    def test_edit_damages_from_changed_line_down(self, make_im):
        # Down to the end of the changed lines only: a same-height edit
        # on row 5 repaints row 5 and leaves rows 0 and 7 alone.
        im = make_im(width=30, height=8)
        data = TextData("\n".join(f"line {i}" for i in range(8)))
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        im.redraw()
        # Scribble sentinels on the window, then edit line 5.
        im.window.surface.put(0, 0, "?")
        im.window.surface.put(0, 7, "?")
        pos = data.search("line 5")
        data.insert(pos, "X")
        im.flush_updates()
        assert im.window.surface.char_at(0, 0) == "?"
        assert im.window.surface.char_at(0, 5) == "X"
        assert im.window.surface.char_at(0, 7) == "?"

    def test_return_shifts_the_rows_below(self, lined):
        im, view, data = lined
        view.set_dot(data.search("line 3") + 2)
        im.flush_updates()
        kept = _sentinel_rows(im, lambda: view.insert_text("\n"))
        # Rows 3-4 hold the split line; rows 4-6 moved to 5-7.
        assert kept == [0, 1, 2, 5, 6, 7]
        assert _matches_full_redraw(im)

    def test_wrap_growing_insert_shifts_the_rows_below(self, lined):
        im, view, data = lined
        data.insert(data.search("line 2") + 6, " and a long tail")
        im.flush_updates()
        kept = _sentinel_rows(
            im, lambda: data.insert(data.search("tail") + 4, " that wraps"))
        assert kept == [0, 1, 4, 5, 6, 7]
        assert view._lines[3].text == "raps"
        assert _matches_full_redraw(im)

    def test_backspace_joining_lines_shifts_the_rows_below_up(self, lined):
        im, view, data = lined
        view.set_dot(data.search("line 4"))
        im.flush_updates()
        kept = _sentinel_rows(
            im, lambda: view.delete_selection_or(view.dot - 1, 1))
        # Row 3 holds the joined line; rows 5-7 moved to 4-6 and the
        # exposed bottom row shows line 8.  The queue keeps one bounding
        # rect per view, so rows 3 to 7 are repainted.
        assert kept == [0, 1, 2]
        assert im.snapshot_lines()[7].startswith("line 8")
        assert _matches_full_redraw(im)

    def test_style_change_repaints_its_row(self, lined):
        im, view, data = lined
        start = data.search("line 4")
        kept = _sentinel_rows(
            im, lambda: data.add_style(start, start + 4, "bold"))
        assert kept == [0, 1, 2, 3, 5, 6, 7]
        assert _matches_full_redraw(im)

    def test_embedded_block_falls_back_to_the_bottom(self, lined):
        im, view, data = lined
        data.insert_object(data.search("line 1"), TableData(1, 1))
        im.flush_updates()
        im.redraw()
        kept = _sentinel_rows(
            im, lambda: data.insert(data.search("line 3"), "X"))
        assert im.snapshot_lines()[6].startswith("Xline 3")
        assert kept == [0, 1, 2, 3, 4, 5]
        assert _matches_full_redraw(im)

    def test_caret_scroll_by_one_line_shifts_the_view(self, lined):
        im, view, data = lined
        view.set_dot(data.search("line 7"))
        im.flush_updates()
        kept = _sentinel_rows(im, lambda: view._cmd_down(view, None))
        # Rows 1-7 moved to 0-6; the old caret row moved with them.
        assert view._top == 1
        assert kept == [0, 1, 2, 3, 4, 5]
        assert _matches_full_redraw(im)

    def test_change_above_window_repaints_all(self, make_im):
        im = make_im(width=30, height=4)
        data = TextData("\n".join(f"line {i}" for i in range(20)))
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        view.set_scroll_pos(10)
        im.flush_updates()
        im.window.surface.put(0, 0, "?")
        data.insert(0, "shift everything\n")
        im.flush_updates()
        assert im.window.surface.char_at(0, 0) != "?"

    def test_change_below_window_queues_no_damage(self, make_im):
        im = make_im(width=30, height=3)
        data = TextData("\n".join(f"line {i}" for i in range(20)))
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        im.flush_updates()
        data.append("invisible tail")
        assert im.updates.is_empty()


class TestTwoViewsOneBuffer:
    def test_edit_in_one_view_updates_both(self, ascii_ws):
        data = TextData("shared")
        left = InteractionManager(ascii_ws, width=20, height=4)
        right = InteractionManager(ascii_ws, width=20, height=4)
        left_view = TextView(data)
        right_view = TextView(data)
        left.set_child(left_view)
        right.set_child(right_view)
        left.process_events()
        right.process_events()
        left.window.inject_keys("!!")
        left.process_events()
        right.flush_updates()
        right.redraw()
        assert "!!shared" in "\n".join(right.snapshot_lines())

    def test_marks_stay_consistent_across_views(self, ascii_ws):
        data = TextData("abcdef")
        a = TextView(data)
        b = TextView(data)
        b.set_dot(6)
        a.set_dot(0)
        a.insert_text("xy")
        assert b.dot == 8

    def test_detaching_a_view_with_a_selection_releases_its_marks(self):
        d = TextData("abcdef")
        keeper = TextView(d)
        leaver = TextView(d)
        leaver.set_dot(1)
        leaver.set_dot(4, extend=True)
        assert leaver.selection() == (1, 4)
        assert len(d.marks._marks) == 3
        leaver.set_dataobject(None)
        # Only the view still attached holds a mark (its caret).
        assert d.marks._marks == [keeper._dot]
        assert leaver.selection() is None


# ---------------------------------------------------------------------------
# Run-level drawing: one draw_string per tab-free piece of a style run
# ---------------------------------------------------------------------------


def per_glyph_draw(view, graphic):
    """The per-glyph paint contract the run-level ``TextView.draw`` must
    reproduce byte for byte: every character resolves its own font, is
    drawn on its own (tabs are skipped, not painted), and each selected
    character inverts its own cell; the caret inverts one base-font
    cell."""
    view.ensure_layout()
    data = view.data
    selection = view.selection()
    caret_index = view._line_index_of(view.dot) if selection is None else None
    y = 0
    for index in range(view._top, len(view._lines)):
        if y >= view.height:
            break
        line = view._lines[index]
        if isinstance(line, _TextLine):
            start = view._starts[index]
            fonts = [view.font_for_styles(data.styles_at(start + offset))
                     for offset in range(len(line.text))]
            widths = [view._metrics(font).char_width * (4 if char == "\t" else 1)
                      for font, char in zip(fonts, line.text)]
            x = line.indent
            if line.centered:
                x += max(0, (view.width - line.indent - sum(widths)) // 2)
            origin = x
            for offset, char in enumerate(line.text):
                graphic.set_font(fonts[offset])
                if char != "\t":
                    graphic.draw_string(x, y, char)
                if selection is not None and (
                    selection[0] <= start + offset < selection[1]
                ):
                    graphic.invert_rect(Rect(x, y, widths[offset], line.height))
                x += widths[offset]
            if index == caret_index:
                caret_x = origin + sum(widths[:view.dot - start])
                graphic.invert_rect(Rect(
                    caret_x, y, view._metrics(view.base_font).char_width,
                    line.height))
        y += line.height


_DRAW_TEXT = (
    "plain\ttabbed\t\tdouble tab and a long tail that wraps past the margin\n"
    "bold run then bigger run then italic run\n"
    "\tcentered paragraph with a tab\n"
    "last line"
)


def _styled_editor(backend, width, height):
    """A view over ``_DRAW_TEXT`` with bold, bigger, italic and centered
    runs (the bold one covering a tab), plus a paragraph-crossing
    style; the caret sits just past the first tab."""
    ws = AsciiWindowSystem() if backend == "ascii" else RasterWindowSystem()
    data = TextData(_DRAW_TEXT)
    data.add_style(3, 13, "bold")
    second = data.search("bold run")
    data.add_style(second, second + 8, "bold")
    data.add_style(second + 14, second + 24, "bigger")
    data.add_style(second + 30, second + 40, "italic")
    third = data.search("\tcentered")
    data.add_style(third, data.search("last line"), "center")
    data.add_style(second + 20, third + 6, "typewriter")
    im = InteractionManager(ws, width=width, height=height)
    view = TextView(data)
    im.set_child(view)
    im.process_events()
    view.set_dot(6)
    return im, view, data


_SIZES = {"ascii": (40, 14), "raster": (260, 120)}


@pytest.fixture(params=["ascii", "raster"])
def backend(request):
    return request.param


def _select(view, data, case):
    if case == "caret":
        view.set_dot(6)
    elif case == "across-runs":
        second = data.search("bold run")
        view.set_dot(second + 4)
        view.set_dot(second + 33, extend=True)
    elif case == "across-lines-and-tabs":
        view.set_dot(2)
        view.set_dot(data.search("centered") + 3, extend=True)
    elif case == "caret-in-centered":
        view.set_dot(data.search("paragraph"))


class TestRunLevelDrawing:
    @pytest.mark.parametrize("case", ["caret", "across-runs",
                                      "across-lines-and-tabs",
                                      "caret-in-centered"])
    def test_equals_per_glyph_render(self, backend, case):
        live_im, live, live_data = _styled_editor(backend, *_SIZES[backend])
        ref_im, ref, ref_data = _styled_editor(backend, *_SIZES[backend])
        ref.draw = lambda graphic: per_glyph_draw(ref, graphic)
        _select(live, live_data, case)
        _select(ref, ref_data, case)
        live_im.redraw()
        ref_im.redraw()
        assert fingerprint(live_im.window) == fingerprint(ref_im.window)

    @pytest.mark.parametrize("case", ["caret", "across-runs",
                                      "across-lines-and-tabs"])
    def test_clip_split_repair_equals_fresh_render(self, backend, case):
        # Damage rects whose edges split text lines, glyph columns and
        # (on raster) glyph rows: scribbled-over pixels must be repaired
        # to exactly what a from-scratch render shows.
        width, height = _SIZES[backend]
        im, view, data = _styled_editor(backend, width, height)
        _select(view, data, case)
        im.redraw()
        fresh = fingerprint(im.window)
        if backend == "ascii":
            rects = [Rect(3, 0, 7, 2), Rect(11, 1, 1, 3), Rect(0, 2, 25, 1)]
        else:
            rects = [Rect(7, 3, 40, 11), Rect(61, 9, 3, 20),
                     Rect(0, 17, 150, 5)]
        for rect in rects:
            scribble = im.window.graphic()
            scribble.invert_rect(rect)
            view.want_update(rect)
            im.flush_updates()
            assert fingerprint(im.window) == fresh, rect

    def test_device_text_requests_per_keystroke_are_bounded(self, ascii_ws):
        # One request per repainted line, not one per glyph.
        was = obs.metrics_enabled()
        obs.configure(metrics=True, reset_data=True)
        try:
            im = InteractionManager(ascii_ws, width=60, height=18)
            data = TextData("\n".join(
                f"paragraph {i}: the quick brown fox jumps over the dog"
                for i in range(40)))
            view = TextView(data)
            im.set_child(view)
            im.redraw()
            view.set_dot(data.search("paragraph 3:"))
            im.flush_updates()
            obs.registry.reset()
            view.insert_text("x")
            im.flush_updates()
            requests = obs.registry.counter("wm.ascii.draw_text")
            repainted_rows = 18 - 3
            assert 0 < requests <= repainted_rows
            assert obs.registry.counter("wm.ascii.requests") <= 2 * 18
        finally:
            obs.configure(metrics=was, reset_data=True)

    def test_raster_text_requests_per_keystroke_are_bounded(self, raster_ws):
        im = InteractionManager(raster_ws, width=240, height=80)
        data = TextData("\n".join(
            f"paragraph {i}: quick brown fox" for i in range(30)))
        view = TextView(data)
        im.set_child(view)
        im.redraw()
        view.set_dot(data.search("paragraph 2:"))
        im.flush_updates()
        before = raster_ws.stats().get("draw_text", 0)
        view.insert_text("x")
        im.flush_updates()
        rows = 80 // view._lines[0].height
        assert 0 < raster_ws.stats()["draw_text"] - before <= rows


class TestCaretDamage:
    @pytest.fixture
    def lined(self, make_im):
        im = make_im(width=30, height=6)
        data = TextData("\n".join(f"line {i} text" for i in range(12)))
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        im.redraw()
        view.set_dot(data.search("line 2"))
        im.flush_updates()
        return im, view, data

    def _repainted(self, im, move):
        was = obs.metrics_enabled()
        obs.configure(metrics=True, reset_data=True)
        try:
            move()
            im.flush_updates()
            return obs.registry.counter("im.repaint_area")
        finally:
            obs.configure(metrics=was, reset_data=True)

    def test_move_within_line_repaints_one_row(self, lined):
        im, view, _ = lined
        assert self._repainted(im, lambda: view._cmd_right(view, None)) == 30
        assert _matches_full_redraw(im)

    def test_move_between_lines_repaints_two_rows(self, lined):
        im, view, _ = lined
        assert self._repainted(im, lambda: view._cmd_down(view, None)) == 60
        assert _matches_full_redraw(im)

    def test_scrolling_move_repaints_whole_view(self, lined):
        # A jump of a whole page leaves no row to shift.
        im, view, data = lined
        far = data.search("line 11")
        assert self._repainted(im, lambda: view.set_dot(far)) == 30 * 6
        assert view._top == 6
        assert _matches_full_redraw(im)

    def test_scrolling_move_shifts_and_repaints_the_strip(self, lined):
        # Five lines down: row 5 moves to row 0 and rows 1-5 are
        # exposed; the old caret row (2) left the window with the shift.
        im, view, data = lined
        far = data.search("line 10")
        assert self._repainted(im, lambda: view.set_dot(far)) == 30 * 5
        assert view._top == 5
        assert _matches_full_redraw(im)

    def test_selection_change_repaints_whole_view(self, lined):
        im, view, _ = lined
        grow = lambda: view.set_dot(view.dot + 3, extend=True)  # noqa: E731
        assert self._repainted(im, grow) == 30 * 6
        assert _matches_full_redraw(im)
        assert self._repainted(im, lambda: view.set_dot(view.dot)) == 30 * 6
        assert _matches_full_redraw(im)
