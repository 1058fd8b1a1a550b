"""Tests for the table/spreadsheet data object."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.class_system import FunctionObserver
from repro.components.table import (
    CYCLE_ERROR,
    Cell,
    Formula,
    TableData,
    VALUE_ERROR,
)
from repro.components.text import TextData
from repro.core import read_document, write_document


class TestCells:
    def test_set_and_get(self):
        table = TableData(3, 3)
        table.set_cell(0, 0, "title")
        table.set_cell(1, 1, 42)
        assert table.cell(0, 0).kind == "text"
        assert table.cell(1, 1).kind == "number"
        assert table.cell(2, 2).kind == "empty"

    def test_string_coercion_rules(self):
        table = TableData(2, 2)
        table.set_cell(0, 0, "3.5")
        table.set_cell(0, 1, "=1+1")
        table.set_cell(1, 0, "hello")
        assert table.cell(0, 0).kind == "number"
        assert table.cell(0, 1).kind == "formula"
        assert table.cell(1, 0).kind == "text"

    def test_bad_formula_string_kept_as_text(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "=((")
        assert table.cell(0, 0).kind == "text"

    def test_clear_cell(self):
        table = TableData(2, 2)
        table.set_cell(0, 0, 5)
        table.clear_cell(0, 0)
        assert table.cell(0, 0).kind == "empty"
        assert table.value_at(0, 0) == ""

    def test_bounds_checked(self):
        table = TableData(2, 2)
        with pytest.raises(IndexError):
            table.set_cell(5, 0, 1)
        with pytest.raises(IndexError):
            table.cell(0, 9)

    def test_mutation_notifies(self):
        table = TableData(2, 2)
        changes = []
        table.add_observer(FunctionObserver(lambda c: changes.append(c)))
        table.set_cell(1, 1, 9)
        assert [(c.what, c.where, c.extent) for c in changes] == [
            ("cell", (1, 1), ((1, 1),))
        ]


class TestRecalculation:
    def test_formula_chain(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, 2)
        table.set_cell(1, 0, "=A1*10")
        table.set_cell(2, 0, "=A2+1")
        assert table.value_at(2, 0) == 21.0

    def test_update_propagates(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "=A1+1")
        assert table.value_at(1, 0) == 2.0
        table.set_cell(0, 0, 10)
        assert table.value_at(1, 0) == 11.0

    def test_direct_cycle_detected(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "=A1")
        assert table.value_at(0, 0) == CYCLE_ERROR

    def test_mutual_cycle_detected(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, "=A2")
        table.set_cell(1, 0, "=A1")
        assert CYCLE_ERROR in (table.value_at(0, 0), table.value_at(1, 0))

    def test_off_table_reference_is_value_error(self):
        table = TableData(2, 2)
        table.set_cell(0, 0, "=Z99")
        assert table.value_at(0, 0) == VALUE_ERROR

    def test_text_reads_as_zero_in_formulas(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, "words")
        table.set_cell(1, 0, "=A1+5")
        assert table.value_at(1, 0) == 5.0

    def test_recalc_is_lazy(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "=A1")
        table.value_at(1, 0)
        count = table.recalc_count
        table.value_at(0, 0)
        table.value_at(1, 0)
        assert table.recalc_count == count

    def test_display_formats(self):
        table = TableData(2, 2)
        table.set_cell(0, 0, 800.0)
        table.set_cell(0, 1, 3.25)
        table.set_cell(1, 0, "txt")
        assert table.display_at(0, 0) == "800"
        assert table.display_at(0, 1) == "3.25"
        assert table.display_at(1, 0) == "txt"
        assert table.display_at(1, 1) == ""

    def test_row_and_column_values(self):
        table = TableData(2, 3)
        table.set_cell(0, 0, 1)
        table.set_cell(0, 1, "skip")
        table.set_cell(0, 2, 3)
        table.set_cell(1, 0, 4)
        assert table.row_values(0) == [1.0, 3.0]
        assert table.column_values(0) == [1.0, 4.0]


class TestStructureEdits:
    def test_insert_row_shifts_cells(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, "top")
        table.set_cell(1, 0, "bottom")
        table.insert_row(1)
        assert table.rows == 3
        assert table.cell(0, 0).content == "top"
        assert table.cell(1, 0).kind == "empty"
        assert table.cell(2, 0).content == "bottom"

    def test_delete_row(self):
        table = TableData(3, 1)
        for row in range(3):
            table.set_cell(row, 0, row)
        table.delete_row(1)
        assert table.rows == 2
        assert table.value_at(1, 0) == 2.0

    def test_insert_and_delete_col(self):
        table = TableData(1, 2)
        table.set_cell(0, 0, "a")
        table.set_cell(0, 1, "b")
        table.insert_col(1)
        assert table.cols == 3
        assert table.cell(0, 2).content == "b"
        table.delete_col(1)
        assert table.cell(0, 1).content == "b"

    def test_cannot_delete_last_row_or_col(self):
        table = TableData(1, 1)
        with pytest.raises(ValueError):
            table.delete_row(0)
        with pytest.raises(ValueError):
            table.delete_col(0)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            TableData(0, 3)


class TestStructureEditRebasing:
    """Formulas must keep pointing at the cells they meant."""

    def test_insert_row_rebases_refs(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, 5)
        table.set_cell(1, 0, "=A1*2")
        assert table.value_at(1, 0) == 10.0
        table.insert_row(0)  # formula and its input both shift down
        assert table.cell(2, 0).content.source == "=A2*2"
        assert table.value_at(2, 0) == 10.0
        table.set_cell(1, 0, 7)
        assert table.value_at(2, 0) == 14.0

    def test_delete_row_rebases_refs(self):
        table = TableData(4, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "filler")  # the row being deleted
        table.set_cell(2, 0, 3)
        table.set_cell(3, 0, "=A1+A3")
        assert table.value_at(3, 0) == 4.0
        table.delete_row(1)
        assert table.cell(2, 0).content.source == "=A1+A2"
        assert table.value_at(2, 0) == 4.0

    def test_delete_referenced_row_yields_value_error(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, 9)
        table.set_cell(2, 0, "=A1*3")
        assert table.value_at(2, 0) == 27.0
        table.delete_row(0)
        assert table.cell(1, 0).content.source == "=#REF*3"
        assert table.value_at(1, 0) == VALUE_ERROR

    def test_insert_col_rebases_refs(self):
        table = TableData(1, 3)
        table.set_cell(0, 0, 2)
        table.set_cell(0, 1, "=A1+1")
        assert table.value_at(0, 1) == 3.0
        table.insert_col(1)  # formula shifts right, its input stays
        assert table.cell(0, 2).content.source == "=A1+1"
        assert table.value_at(0, 2) == 3.0
        assert table.cell(0, 1).kind == "empty"

    def test_delete_col_rebases_and_kills_deleted_refs(self):
        table = TableData(1, 4)
        table.set_cell(0, 0, 1)       # A1
        table.set_cell(0, 1, 2)       # B1 (deleted)
        table.set_cell(0, 2, "=B1")   # C1: loses its referent
        table.set_cell(0, 3, "=A1")   # D1: untouched reference
        assert table.value_at(0, 2) == 2.0
        table.delete_col(1)
        assert table.value_at(0, 1) == VALUE_ERROR
        assert table.cell(0, 2).content.source == "=A1"
        assert table.value_at(0, 2) == 1.0

    def test_range_shrinks_when_interior_row_deleted(self):
        table = TableData(4, 1)
        for row in range(3):
            table.set_cell(row, 0, row + 1)  # 1, 2, 3
        table.set_cell(3, 0, "=SUM(A1:A3)")
        assert table.value_at(3, 0) == 6.0
        table.delete_row(1)  # interior row: the span just shrinks
        assert table.cell(2, 0).content.source == "=SUM(A1:A2)"
        assert table.value_at(2, 0) == 4.0

    def test_range_endpoint_deletion_is_value_error(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, 2)
        table.set_cell(2, 0, "=SUM(A1:A2)")
        assert table.value_at(2, 0) == 3.0
        table.delete_row(1)  # destroys the range's bottom endpoint
        assert table.value_at(1, 0) == VALUE_ERROR

    def test_ref_marker_roundtrips_through_datastream(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "=A1")
        table.delete_row(0)
        stream = write_document(table)
        restored = read_document(stream)
        assert write_document(restored) == stream
        assert restored.value_at(0, 0) == VALUE_ERROR

    def test_structure_edit_announces_recalc_records(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, 9)
        table.set_cell(2, 0, "=A1")
        assert table.value_at(2, 0) == 9.0
        changes = []
        table.add_observer(FunctionObserver(changes.append))
        table.delete_row(0)  # destroys the referent: formula -> #REF
        assert changes[0].what == "shape"
        cells = [c for c in changes if c.what == "cell"]
        assert len(cells) == 1  # one record for every recalculated value
        assert cells[0].detail == "recalc"
        assert cells[0].extent == ((1, 0),)
        assert table.value_at(1, 0) == VALUE_ERROR


class TestCycleSemantics:
    def test_only_cycle_members_show_cycle_error(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, "=A2")
        table.set_cell(1, 0, "=A1")
        table.set_cell(2, 0, "=A1+1")  # downstream of the cycle
        assert table.value_at(0, 0) == CYCLE_ERROR
        assert table.value_at(1, 0) == CYCLE_ERROR
        assert table.value_at(2, 0) == VALUE_ERROR

    def test_text_cell_spelling_cycle_is_plain_text(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, CYCLE_ERROR)  # literal text "#CYCLE"
        table.set_cell(1, 0, "=A1+1")
        assert table.value_at(0, 0) == CYCLE_ERROR
        assert table.value_at(1, 0) == 1.0  # text reads as zero

    def test_breaking_a_cycle_heals_incrementally(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, "=A2")
        table.set_cell(1, 0, "=A1")
        assert table.value_at(0, 0) == CYCLE_ERROR
        table.set_cell(1, 0, 5)
        assert table.value_at(0, 0) == 5.0
        assert table.value_at(1, 0) == 5.0

    def test_cycle_remnant_recomputes_when_cycle_shrinks(self):
        # A1 -> B1 -> A2 -> A1; rewriting A2 shrinks the cycle to
        # {B1, A2}, whose values (still #CYCLE) do not change — the
        # ex-member A1 must nevertheless drop its stale #CYCLE stamp.
        table = TableData(2, 2)
        table.set_cell(0, 0, "=B1")
        table.set_cell(0, 1, "=A2")
        table.set_cell(1, 0, "=A1")
        assert table.value_at(0, 0) == CYCLE_ERROR
        table.set_cell(1, 0, "=B1")
        assert table.value_at(0, 1) == CYCLE_ERROR
        assert table.value_at(1, 0) == CYCLE_ERROR
        assert table.value_at(0, 0) == VALUE_ERROR


class TestNonFiniteValues:
    def test_non_finite_strings_stay_text(self):
        table = TableData(1, 1)
        for text in ("nan", "inf", "infinity", "-inf", "+NaN", "Infinity"):
            table.set_cell(0, 0, text)
            assert table.cell(0, 0).kind == "text", text
            assert table.value_at(0, 0) == text

    def test_finite_numeric_strings_still_coerce(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "-2.5e3")
        assert table.cell(0, 0).kind == "number"
        assert table.value_at(0, 0) == -2500.0

    def test_overflowing_formula_is_value_error(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "=2^10000")  # raises OverflowError
        assert table.value_at(0, 0) == VALUE_ERROR

    def test_infinite_formula_result_is_value_error(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "=1e308*10")  # quietly overflows to inf
        assert table.value_at(0, 0) == VALUE_ERROR


class TestIncrementalRecalc:
    def test_edit_after_read_skips_full_recalc(self):
        table = TableData(3, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "=A1+1")
        table.set_cell(2, 0, "=A2+1")
        assert table.value_at(2, 0) == 3.0
        fulls = table.recalc_count
        table.set_cell(0, 0, 10)
        assert table.value_at(2, 0) == 12.0
        assert table.recalc_count == fulls
        assert table.incremental_count >= 1

    def test_one_record_lists_downstream_changes(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, 2)
        table.set_cell(1, 0, "=A1+1")
        table.value_at(1, 0)
        changes = []
        table.add_observer(FunctionObserver(changes.append))
        table.set_cell(0, 0, 5)
        records = [(c.where, c.extent, c.detail)
                   for c in changes if c.what == "cell"]
        # One record; the edit itself comes first in its extent.
        assert records == [((0, 0), ((0, 0), (1, 0)), None)]

    def test_unchanged_downstream_value_not_announced(self):
        table = TableData(2, 1)
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "=A1*0")  # always 0, whatever A1 is
        table.value_at(1, 0)
        changes = []
        table.add_observer(FunctionObserver(changes.append))
        table.set_cell(0, 0, 99)
        records = [(c.where, c.extent) for c in changes if c.what == "cell"]
        assert records == [((0, 0), ((0, 0),))]

    def test_incremental_disabled_restores_lazy_behaviour(self):
        table = TableData(2, 1)
        table.incremental_enabled = False
        table.set_cell(0, 0, 1)
        table.set_cell(1, 0, "=A1+1")
        assert table.value_at(1, 0) == 2.0
        fulls = table.recalc_count
        table.set_cell(0, 0, 3)
        assert table.value_at(1, 0) == 4.0
        assert table.recalc_count == fulls + 1  # every edit -> full pass
        assert table.incremental_count == 0


class TestEmbedding:
    def test_embed_object_cell(self):
        table = TableData(2, 2)
        inner = TextData("hi")
        table.embed_object(0, 1, inner)
        cell = table.cell(0, 1)
        assert cell.kind == "object"
        assert cell.view_type == "textview"
        assert table.embedded_objects() == [inner]

    def test_object_cells_read_as_zero(self):
        table = TableData(2, 1)
        table.embed_object(0, 0, TextData("x"))
        table.set_cell(1, 0, "=A1+1")
        assert table.value_at(1, 0) == 1.0


class TestExternalRepresentation:
    def roundtrip(self, table):
        stream = write_document(table)
        restored = read_document(stream)
        assert write_document(restored) == stream
        return restored

    def test_values_roundtrip(self):
        table = TableData(3, 3)
        table.set_cell(0, 0, "label")
        table.set_cell(1, 1, 2.5)
        table.set_cell(2, 2, "=B2*2")
        restored = self.roundtrip(table)
        assert restored.rows == 3 and restored.cols == 3
        assert restored.cell(0, 0).content == "label"
        assert restored.value_at(2, 2) == 5.0

    def test_text_with_newlines_and_backslashes(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "two\nlines with \\ slash")
        restored = self.roundtrip(table)
        assert restored.cell(0, 0).content == "two\nlines with \\ slash"

    def test_very_long_text_cell_wraps(self):
        table = TableData(1, 1)
        table.set_cell(0, 0, "word " * 60 + "\\" * 7)
        restored = self.roundtrip(table)
        assert restored.cell(0, 0).content == table.cell(0, 0).content
        stream = write_document(table)
        assert all(len(l) <= 80 for l in stream.splitlines())

    def test_embedded_component_roundtrip(self):
        table = TableData(2, 2)
        table.embed_object(1, 0, TextData("cell text"), "textview")
        restored = self.roundtrip(table)
        cell = restored.cell(1, 0)
        assert cell.kind == "object"
        assert cell.content.text() == "cell text"

    def test_empty_table_roundtrip(self):
        restored = self.roundtrip(TableData(4, 5))
        assert (restored.rows, restored.cols) == (4, 5)


# ---------------------------------------------------------------------------
# Range reads: one pass over the value cache against the per-cell walk
# ---------------------------------------------------------------------------


def reference_read_range(table, top, left, bottom, right):
    """The per-cell range read: one ``_resolve`` per cell, row-major."""
    return [float(table._resolve(row, col))
            for row in range(top, bottom + 1)
            for col in range(left, right + 1)]


def _outcome(read):
    try:
        return ("ok", read())
    except Exception as exc:  # the same type and message, or a mismatch
        return ("raises", type(exc), str(exc))


_CONTENTS = st.one_of(
    st.none(),
    st.floats(-1e6, 1e6, allow_nan=False).map(float),
    st.sampled_from(["note", "", "=1/0", "=A1", "=B2+1", "=SUM(A1:B2)",
                     "=#REF", "=C1*2"]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_read_range_matches_per_cell_resolve(rows, cols, draw):
    # Numbers, text, empties, #VALUE and #CYCLE cells, and ranges that
    # run off the table: the same values, or the same error for the
    # first bad cell in row-major order.
    table = TableData(rows, cols)
    for row in range(rows):
        for col in range(cols):
            content = draw.draw(_CONTENTS)
            if content is not None:
                table.set_cell(row, col, content)
    table.value_at(0, 0)  # materialise the value cache
    top = draw.draw(st.integers(0, rows))
    left = draw.draw(st.integers(0, cols))
    bottom = draw.draw(st.integers(top, rows + 1))
    right = draw.draw(st.integers(left, cols + 1))
    assert _outcome(lambda: table._read_range(top, left, bottom, right)) \
        == _outcome(lambda: reference_read_range(table, top, left,
                                                 bottom, right))
