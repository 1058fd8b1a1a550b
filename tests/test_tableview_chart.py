"""Tests for the table view and the chart observer chain (section 2)."""

import pytest

from repro.components.table import (
    BarChartView,
    ChartData,
    PieChartView,
    TableData,
    TableView,
)
from repro.components.text import TextData
from repro.class_system import lookup


@pytest.fixture
def grid(make_im):
    im = make_im(width=60, height=14)
    table = TableData(5, 3)
    view = TableView(table)
    im.set_child(view)
    im.process_events()
    return im, view, table


class TestTableView:
    def test_registered_as_spread_alias(self):
        assert lookup("spread") is TableView
        assert lookup("tableview") is TableView

    def test_headers_drawn(self, grid):
        im, view, table = grid
        im.redraw()
        top = im.snapshot_lines()[0]
        assert "A" in top and "B" in top and "C" in top
        assert "1" in im.snapshot_lines()[2]

    def test_click_selects_cell(self, grid):
        im, view, table = grid
        x = view._col_x(1) + 2
        y = 2 + 1  # second data row
        im.window.inject_click(x, y)
        im.process_events()
        assert view.selected == (1, 1)

    def test_typing_edits_and_commit_moves_down(self, grid):
        im, view, table = grid
        im.window.inject_keys("42\n")
        im.process_events()
        assert table.value_at(0, 0) == 42.0
        assert view.selected == (1, 0)

    def test_formula_entry_displays_value(self, grid):
        im, view, table = grid
        table.set_cell(0, 0, 2)
        table.set_cell(1, 0, 3)
        view.select(2, 0)
        im.window.inject_keys("=A1+A2\n")
        im.process_events()
        im.redraw()
        assert "5" in "\n".join(im.snapshot_lines())

    def test_escape_cancels_edit(self, grid):
        im, view, table = grid
        im.window.inject_keys("99")
        im.window.inject_key("Escape")
        im.process_events()
        assert table.cell(0, 0).kind == "empty"

    def test_backspace_clears_committed_cell(self, grid):
        im, view, table = grid
        table.set_cell(0, 0, 7)
        im.window.inject_key("Backspace")
        im.process_events()
        assert table.cell(0, 0).kind == "empty"

    def test_arrow_navigation(self, grid):
        im, view, table = grid
        im.window.inject_key("Down")
        im.window.inject_key("Right")
        im.process_events()
        assert view.selected == (1, 1)

    def test_menu_insert_row(self, grid):
        im, view, table = grid
        im.window.inject_menu("Table", "Insert Row")
        im.process_events()
        assert table.rows == 6

    def test_embedded_cell_grows_row(self, grid):
        im, view, table = grid
        table.embed_object(0, 1, TextData("a\nb\nc\n"))
        im.process_events()
        view.ensure_layout()
        assert view.row_height(0) > 1
        assert len(view.children) == 1

    def test_selection_clamped_after_shape_change(self, grid):
        im, view, table = grid
        view.select(4, 2)
        table.delete_row(4)
        assert view.selected[0] <= table.rows - 1

    def test_desired_size_tracks_content(self, grid):
        _, view, table = grid
        width, height = view.desired_size(200, 200)
        assert height == 2 + table.rows
        assert width == view._col_x(table.cols)


def chained_sheet(rows):
    """Column A numbers, column B the running sum of A, column C twice B:
    an edit of A<n> changes A<n> and every B and C from row n down."""
    table = TableData(rows, 3)
    for row in range(rows):
        table.set_cell(row, 0, row % 17 + 1)
        table.set_cell(row, 1, f"=B{row}+A{row + 1}" if row else "=A1")
        table.set_cell(row, 2, f"=B{row + 1}*2")
    return table


def chain_column(rows):
    """One column where each cell reads the one above: an edit of row 0
    changes every value in the sheet."""
    table = TableData(rows, 1)
    table.set_cell(0, 0, 1)
    for row in range(1, rows):
        table.set_cell(row, 0, f"=A{row}+1")
    return table


def record_damage(view):
    """Replace ``view.want_update`` with a recorder of its rects (``None``
    for a whole-view update)."""
    posted = []
    view.want_update = lambda rect=None: posted.append(rect)
    return posted


class TestVisibleBandDamage:
    def scrolled(self, make_im, table, top):
        im = make_im(width=80, height=24)
        view = TableView(table)
        im.set_child(view)
        im.process_events()
        view.apply_scroll_pos(top)
        view.want_update()
        im.process_events()
        assert view._top_row == top
        return im, view

    def test_edit_above_viewport_posts_no_damage(self, make_im):
        table = TableData(100, 3)
        im, view = self.scrolled(make_im, table, 50)
        posted = record_damage(view)
        table.set_cell(10, 2, "hello")
        assert posted == []
        assert view.cell_rect(10, 2).is_empty()

    def test_selection_above_viewport_posts_no_damage(self, make_im):
        table = TableData(100, 3)
        im, view = self.scrolled(make_im, table, 50)
        view.selected = (10, 2)
        posted = record_damage(view)
        im.window.inject_key("x")
        im.process_events()
        assert view.editing == "x"
        assert posted == []

    def test_edit_damages_only_visible_changed_cells(self, make_im):
        table = chained_sheet(240)
        im, view = self.scrolled(make_im, table, 100)
        posted = record_damage(view)
        table.set_cell(90, 0, 99)  # changes B/C of rows 90..239
        visible = view.height - 2  # header rows
        assert len(posted) == 2 * visible
        assert {rect.top for rect in posted} == set(range(2, 2 + visible))
        assert {rect.left for rect in posted} == {
            view._col_x(1), view._col_x(2)
        }

    @staticmethod
    def view_work_per_edit(make_im, rows, monkeypatch):
        """cell_rect and row_height calls for one edit of row 0 of a
        ``rows``-row chain in an 80x24 view, which settles afterwards."""
        table = chain_column(rows)
        im = make_im(width=80, height=24)
        view = TableView(table)
        im.set_child(view)
        im.process_events()
        calls = {"cell_rect": 0, "row_height": 0}

        def counted(name):
            original = getattr(view, name)

            def wrapper(*args):
                calls[name] += 1
                # Fail fast on an O(sheet) walk rather than running it.
                assert calls[name] <= 1000, f"{name} called per sheet row"
                return original(*args)

            monkeypatch.setattr(view, name, wrapper)

        counted("cell_rect")
        counted("row_height")
        table.set_cell(0, 0, 5)
        im.process_events()
        assert table.value_at(rows - 1, 0) == 5 + rows - 1
        return calls, view.height - 2

    def test_view_work_per_edit_independent_of_sheet_rows(
        self, make_im, monkeypatch
    ):
        small, visible = self.view_work_per_edit(make_im, 240, monkeypatch)
        large, _ = self.view_work_per_edit(make_im, 24_000, monkeypatch)
        assert small == large
        assert 0 < small["cell_rect"] <= visible


class TestChartObserverChain:
    def make_chart(self):
        table = TableData(4, 2)
        for row, value in enumerate([4, 3, 2, 1]):
            table.set_cell(row, 1, value)
        chart = ChartData(table, series_axis="col", series_index=1,
                          title="Numbers")
        return table, chart

    def test_series_derived_from_table(self):
        table, chart = self.make_chart()
        assert chart.series() == [4.0, 3.0, 2.0, 1.0]

    def test_table_edit_flows_to_chart_then_views(self):
        table, chart = self.make_chart()
        from repro.class_system import FunctionObserver

        notifications = []
        chart.add_observer(FunctionObserver(lambda c: notifications.append(c)))
        table.set_cell(0, 1, 10)
        assert chart.series()[0] == 10.0
        assert notifications  # the two-hop update reached chart observers

    def test_row_series(self):
        table, chart = self.make_chart()
        table.set_cell(0, 0, 7)
        chart.set_series("row", 0)
        assert chart.series() == [7.0, 4.0]

    def test_config_is_persistent_but_table_is_not(self):
        from repro.core import read_document, write_document

        table, chart = self.make_chart()
        chart.set_labels(["a", "b", "c", "d"])
        restored = read_document(write_document(chart))
        assert restored.title == "Numbers"
        assert restored.labels == ["a", "b", "c", "d"]
        assert restored.series_axis == "col" and restored.series_index == 1
        assert restored.table is None  # relinked by the embedding code
        restored.attach_table(table)
        assert restored.series() == chart.series()

    def test_detaching_table_clears_series(self):
        table, chart = self.make_chart()
        chart.attach_table(None)
        assert chart.series() == []
        assert table.observer_count == 0

    def test_table_destroy_detaches_chart(self):
        table, chart = self.make_chart()
        table.destroy()
        assert chart.table is None
        assert chart.series() == []

    def test_pie_and_bar_views_render(self, make_im):
        table, chart = self.make_chart()
        chart.set_labels(["aa", "bb", "cc", "dd"])
        im = make_im(width=40, height=10)
        pie = PieChartView(chart)
        im.set_child(pie)
        im.redraw()
        snapshot = "\n".join(im.snapshot_lines())
        assert "Numbers" in snapshot
        assert "40%" in snapshot  # 4 of 10

        im2 = make_im(width=40, height=10)
        bar = BarChartView(chart)
        im2.set_child(bar)
        im2.redraw()
        assert "aa" in "\n".join(im2.snapshot_lines())

    def test_table_edit_repaints_chart_view(self, make_im):
        table, chart = self.make_chart()
        im = make_im(width=40, height=10)
        pie = PieChartView(chart)
        im.set_child(pie)
        im.process_events()
        table.set_cell(0, 1, 100)
        assert len(im.updates) == 1  # the §2 chain queued a repaint

    @pytest.mark.parametrize("rows", [120, 480])
    def test_one_recompute_per_edit_crossing_the_series(self, rows):
        table = chained_sheet(rows)
        chart = ChartData(table, series_axis="col", series_index=1)
        for row in (0, rows // 2, rows - 1):
            before = chart.recompute_count
            table.set_cell(row, 0, 100 + row)  # moves B from ``row`` down
            assert chart.recompute_count == before + 1
        assert chart.series() == table.column_values(1)
        before = chart.recompute_count
        table.set_cell(rows // 2, 2, 7)  # column C only: outside the series
        assert chart.recompute_count == before

    def test_bad_axis_rejected(self):
        table, _ = self.make_chart()
        with pytest.raises(ValueError):
            ChartData(table, series_axis="diagonal")
