"""Tests for shape groups and the extra spreadsheet functions."""

import gc

import pytest

from repro.components.drawing import (
    DrawView,
    DrawingData,
    GroupShape,
    LineShape,
    RectShape,
    TextShape,
)
from repro.components.table.formula import FormulaError, evaluate
from repro.components.text import TextData
from repro.core import read_document, write_document
from repro.graphics import Point, Rect


class TestGroupShape:
    def build(self):
        drawing = DrawingData(40, 12)
        a = drawing.add_shape(LineShape(0, 0, 5, 0))
        b = drawing.add_shape(RectShape(Rect(10, 2, 5, 3)))
        c = drawing.add_shape(LineShape(0, 10, 5, 10))
        group = drawing.group_shapes([a, b])
        return drawing, group, a, b, c

    def test_group_replaces_members_at_their_place(self):
        drawing, group, a, b, c = self.build()
        assert drawing.shapes == [group, c]
        assert group.children == [a, b]

    def test_group_bounds_union(self):
        drawing, group, a, b, c = self.build()
        assert group.bounds() == Rect(0, 0, 15, 5)

    def test_group_hits_any_member(self):
        drawing, group, a, b, c = self.build()
        assert drawing.shape_at(Point(2, 0)) is group
        assert drawing.shape_at(Point(10, 3)) is group
        assert drawing.shape_at(Point(2, 10)) is c

    def test_group_moves_as_unit(self):
        drawing, group, a, b, c = self.build()
        drawing.move_shape(group, 3, 2)
        assert (a.x0, a.y0) == (3, 2)
        assert b.rect.origin == Point(13, 4)

    def test_ungroup_restores_members(self):
        drawing, group, a, b, c = self.build()
        drawing.ungroup(group)
        assert drawing.shapes == [a, b, c]

    def test_group_of_nontop_shape_rejected(self):
        drawing, group, a, b, c = self.build()
        with pytest.raises(ValueError):
            drawing.group_shapes([a])  # a is inside the group now

    def test_nested_groups(self):
        drawing = DrawingData()
        a = drawing.add_shape(LineShape(0, 0, 1, 1))
        b = drawing.add_shape(LineShape(2, 2, 3, 3))
        c = drawing.add_shape(LineShape(4, 4, 5, 5))
        inner = drawing.group_shapes([a, b])
        outer = drawing.group_shapes([inner, c])
        assert outer.flatten() == [a, b, c]
        drawing.move_shape(outer, 1, 0)
        assert a.x0 == 1 and c.x0 == 5

    def test_group_roundtrip(self):
        drawing, group, a, b, c = self.build()
        stream = write_document(drawing)
        restored = read_document(stream)
        assert write_document(restored) == stream
        assert restored.shapes[0].kind == "group"
        assert [s.kind for s in restored.shapes[0].children] == [
            "line", "rect"]

    def test_nested_group_with_text_roundtrip(self):
        drawing = DrawingData()
        text_shape = drawing.add_text(Rect(1, 1, 10, 2),
                                      TextData("grouped text"))
        line = drawing.add_shape(LineShape(0, 0, 9, 0))
        drawing.group_shapes([text_shape, line])
        stream = write_document(drawing)
        restored = read_document(stream)
        assert write_document(restored) == stream
        assert restored.text_shapes()[0].data.text() == "grouped text"

    def test_text_shapes_in_order_and_leave_no_garbage(self):
        drawing = DrawingData()
        first = drawing.add_text(Rect(1, 1, 10, 2), TextData("one"))
        line = drawing.add_shape(LineShape(0, 0, 9, 0))
        inner = drawing.add_text(Rect(1, 4, 10, 2), TextData("two"))
        drawing.group_shapes([line, inner])
        last = drawing.add_text(Rect(1, 8, 10, 2), TextData("three"))
        drawing.group_shapes([drawing.shapes[1]])  # a group in a group
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert drawing.text_shapes() == [first, inner, last]
            # Views ask on every repaint: no reference cycle per call.
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()

    def test_group_selection_in_view(self, make_im):
        im = make_im(width=42, height=14)
        drawing, group, a, b, c = self.build()
        view = DrawView(drawing)
        im.set_child(view)
        im.process_events()
        im.window.inject_click(11, 3)  # over the rect, inside the group
        im.process_events()
        assert view.selected is group

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            GroupShape([])


class TestExtraFunctions:
    resolve = staticmethod(lambda r, c: 0.0)

    def test_round(self):
        assert evaluate("=ROUND(2.6)", self.resolve) == 3.0
        assert evaluate("=ROUND(2.345, 2)", self.resolve) == 2.35

    def test_int_floors(self):
        assert evaluate("=INT(2.9)", self.resolve) == 2.0
        assert evaluate("=INT(0-2.1)", self.resolve) == -3.0

    def test_mod(self):
        assert evaluate("=MOD(7, 3)", self.resolve) == 1.0
        with pytest.raises(FormulaError):
            evaluate("=MOD(1, 0)", self.resolve)
        with pytest.raises(FormulaError):
            evaluate("=MOD(1)", self.resolve)

    def test_functions_compose(self):
        assert evaluate("=ROUND(SQRT(2), 2)", self.resolve) == 1.41
