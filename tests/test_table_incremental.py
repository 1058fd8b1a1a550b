"""Incremental recalculation equivalence and instrumentation tests.

The correctness bar for the dependency-graph engine (see DESIGN.md
"Performance"): after any edit sequence, the incrementally maintained
value cache must be *identical* — cell by cell, type by type — to what
a from-scratch recalculation of the same sheet produces.  These tests
enforce that with randomized edit scripts driven against a pair of
:class:`TableData` objects receiving identical operations: the subject
repairs its values through the dirty cone, the control
(``incremental_enabled = False``) invalidates everything and recalcs
fully on every read — exactly the seed behaviour.

Mirrors ``tests/test_text_incremental.py``, which proved the same
contract for the paragraph cache.
"""

import pytest

from tests.randutil import describe_seed, seeded_rng

from repro import obs
from repro.components.table import (
    CYCLE_ERROR,
    TableData,
    VALUE_ERROR,
    ref_name,
)
from repro.core import read_document, write_document


@pytest.fixture
def telemetry():
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    yield obs.registry
    obs.configure(metrics=was, reset_data=True)


def make_pair(rows=6, cols=5):
    """A subject/control table pair; apply every op to both."""
    subject = TableData(rows, cols)
    control = TableData(rows, cols)
    control.incremental_enabled = False  # instance override: always full
    return subject, control


def grid(table):
    """Every computed value, with its type (errors are typed strings)."""
    return [
        [
            (value, type(value).__name__)
            for col in range(table.cols)
            for value in (table.value_at(row, col),)
        ]
        for row in range(table.rows)
    ]


def assert_equivalent(subject, control, label):
    assert (subject.rows, subject.cols) == (control.rows, control.cols), label
    assert grid(subject) == grid(control), label


def assert_ranks(table, label):
    """``rank[dep] < rank[key]`` for every edge outside a cycle."""
    graph = table._graph
    cyclic = graph.holds_cycle()
    components = graph.scc_order(graph.deps)
    assert cyclic == any(graph.is_cycle(c) for c in components), label
    component_of = {key: i for i, c in enumerate(components) for key in c}
    for key, refs in graph.deps.items():
        for dep in refs:
            if component_of.get(dep) == component_of[key]:
                continue  # an edge on a cycle
            assert graph.rank.get(dep, 0) < graph.rank[key], (label, dep, key)


@pytest.fixture
def paths(monkeypatch):
    """Which recalc path each subject-arm recalc took, in order (the
    control arm, ``incremental_enabled = False``, is not recorded)."""
    taken = []

    def spy(name, method):
        def wrapper(self, *args, **kwargs):
            if self.incremental_enabled:
                taken.append(name)
            return method(self, *args, **kwargs)
        monkeypatch.setattr(TableData, f"_{name}", wrapper)

    spy("propagate", TableData._propagate)
    spy("recompute", TableData._recompute)
    return taken


# ---------------------------------------------------------------------------
# Directed cases: the edit shapes most likely to fool a dirty cone
# ---------------------------------------------------------------------------


class TestDirectedEquivalence:
    def test_chain_edit(self):
        subject, control = make_pair()
        for table in (subject, control):
            table.set_cell(0, 0, 1)
            table.set_cell(1, 0, "=A1+1")
            table.set_cell(2, 0, "=A2+1")
        assert_equivalent(subject, control, "build")
        for table in (subject, control):
            table.set_cell(0, 0, 10)
        assert_equivalent(subject, control, "edit head")

    def test_formula_replaced_by_number(self):
        subject, control = make_pair()
        for table in (subject, control):
            table.set_cell(0, 0, 2)
            table.set_cell(1, 0, "=A1*3")
            table.set_cell(2, 0, "=A2*3")
        assert_equivalent(subject, control, "build")
        for table in (subject, control):
            table.set_cell(1, 0, 100)  # edges into A1 must be dropped
        assert_equivalent(subject, control, "replace")
        for table in (subject, control):
            table.set_cell(0, 0, 9)  # must no longer reach row 2
        assert_equivalent(subject, control, "old input")

    def test_cycle_created_then_broken(self):
        subject, control = make_pair()
        for table in (subject, control):
            table.set_cell(0, 0, "=A2")
            table.set_cell(1, 0, "=A1")
            table.set_cell(2, 0, "=A1+1")  # downstream of the cycle
        assert_equivalent(subject, control, "cycle")
        assert subject.value_at(0, 0) == CYCLE_ERROR
        assert subject.value_at(2, 0) == VALUE_ERROR
        for table in (subject, control):
            table.set_cell(1, 0, 4)
        assert_equivalent(subject, control, "broken")
        assert subject.value_at(2, 0) == 5.0

    def test_clearing_a_referenced_cell(self):
        subject, control = make_pair()
        for table in (subject, control):
            table.set_cell(0, 0, 8)
            table.set_cell(1, 0, "=A1/2")
        assert_equivalent(subject, control, "build")
        for table in (subject, control):
            table.clear_cell(0, 0)  # empty reads as zero
        assert_equivalent(subject, control, "cleared")

    def test_structure_ops_interleaved_with_edits(self):
        subject, control = make_pair(4, 3)
        for table in (subject, control):
            table.set_cell(0, 0, 1)
            table.set_cell(1, 0, "=A1*2")
            table.set_cell(3, 2, "=SUM(A1:A4)")
        assert_equivalent(subject, control, "build")
        for table in (subject, control):
            table.insert_row(1)
        assert_equivalent(subject, control, "insert row")
        for table in (subject, control):
            table.set_cell(1, 0, 5)  # the new empty row joins the range
        assert_equivalent(subject, control, "fill inserted")
        for table in (subject, control):
            table.delete_col(0)  # every formula loses its inputs
        assert_equivalent(subject, control, "delete col")


# ---------------------------------------------------------------------------
# Rank-ordered propagation: which path an edit takes, and what it costs
# ---------------------------------------------------------------------------


class TestRankPropagation:
    def test_diamond_evaluates_the_join_once(self, monkeypatch, paths):
        # The join sits above its inputs, so key order is not
        # evaluation order: only the ranks put it last.
        table = TableData(4, 1)
        table.set_cell(3, 0, 1)
        table.set_cell(1, 0, "=A4+1")
        table.set_cell(2, 0, "=A4*2")
        table.set_cell(0, 0, "=A2+A3")
        assert table.value_at(0, 0) == 4.0
        del paths[:]  # the full recalc that materialized the values
        evaluated = []
        compute = TableData._compute_one

        def counting(self, key):
            evaluated.append(key)
            return compute(self, key)

        monkeypatch.setattr(TableData, "_compute_one", counting)
        table.set_cell(3, 0, 5)
        assert paths == ["propagate"]
        assert sorted(evaluated) == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert evaluated[-1] == (0, 0)  # after both of its inputs
        assert table.value_at(0, 0) == 16.0
        assert_ranks(table, "diamond")

    def test_cycle_closed_dissolved_then_ranked_again(self, paths):
        subject, control = make_pair(4, 1)
        for table in (subject, control):
            table.set_cell(0, 0, 1)
            table.set_cell(1, 0, "=A1+A4")
            table.set_cell(2, 0, "=A2*2")
            table.set_cell(3, 0, 0)
        assert_equivalent(subject, control, "build")
        del paths[:]
        for table in (subject, control):
            table.set_cell(3, 0, "=A3")  # closes A2 -> A3 -> A4 -> A2
        assert_equivalent(subject, control, "closed")
        assert subject.value_at(1, 0) == CYCLE_ERROR
        assert subject._graph.holds_cycle()
        assert_ranks(subject, "closed")
        for table in (subject, control):
            table.set_cell(0, 0, 2)  # an edit while the cycle stands
        assert_equivalent(subject, control, "inside")
        for table in (subject, control):
            table.set_cell(2, 0, 7)  # dissolves it: re-stamp the members
        assert_equivalent(subject, control, "dissolved")
        assert subject.value_at(1, 0) == 9.0
        assert not subject._graph.holds_cycle()
        assert_ranks(subject, "dissolved")
        for table in (subject, control):
            table.set_cell(0, 0, 3)  # upstream of A2: ranked again
        assert_equivalent(subject, control, "upstream")
        assert paths == ["recompute", "recompute", "recompute", "propagate"]

    @pytest.mark.parametrize("op", ["insert_row", "delete_row"])
    def test_structural_edit_then_value_edits(self, op, paths):
        subject, control = make_pair(6, 2)
        for table in (subject, control):
            for row in range(6):
                table.set_cell(row, 0, row + 1)
            table.set_cell(0, 1, "=A1")
            for row in range(1, 6):
                table.set_cell(row, 1, f"=B{row}+A{row + 1}")
        assert_equivalent(subject, control, "build")
        del paths[:]
        for table in (subject, control):
            getattr(table, op)(2)
        assert_equivalent(subject, control, op)
        assert_ranks(subject, op)
        for value in (10, 20):
            for table in (subject, control):
                table.set_cell(0, 0, value)
            assert_equivalent(subject, control, f"{op} then {value}")
            assert_ranks(subject, f"{op} then {value}")
        # The structural edit itself recomputes by Tarjan; the value
        # edits after it are ranked again.
        assert paths == ["recompute", "propagate", "propagate"]

    def test_equal_value_evaluates_only_the_seed(self, telemetry, paths):
        table = TableData(3, 1)
        table.set_cell(0, 0, 7)
        table.set_cell(1, 0, "=A1*0")
        table.set_cell(2, 0, "=A2+1")
        table.value_at(2, 0)
        telemetry.reset()
        del paths[:]
        table.set_cell(0, 0, 7)  # the same number again
        assert telemetry.counter("table.cells_recomputed") == 1
        table.set_cell(1, 0, "=A1-A1")  # a new formula, the same value
        assert telemetry.counter("table.cells_recomputed") == 2
        assert paths == ["propagate", "propagate"]
        assert table.value_at(2, 0) == 1.0

    def test_rank_raises_stay_downstream(self):
        table = TableData(10, 3)
        for row in range(10):
            table.set_cell(row, 0, row)
        table.set_cell(0, 1, "=A1")
        for row in range(1, 10):
            table.set_cell(row, 1, f"=B{row}+A{row + 1}")
        table.set_cell(6, 2, "=B6")  # ranked level with B7
        graph = table._graph
        before = graph.rank_raises
        table.set_cell(6, 1, "=C7+A7")  # B7 now reads a same-rank cell
        # B7 and the three chain cells below it rise; nothing above.
        assert graph.rank_raises - before == 4
        assert_ranks(table, "raised")
        assert table.value_at(9, 1) == sum(range(10))

    def test_raise_through_a_diamond(self):
        # A2 reads A1, A3 reads A1 and A2: raising A1 must lift A3
        # above the raised A2, not merely above A1.
        table = TableData(6, 1)
        table.set_cell(1, 0, "=A1")
        table.set_cell(2, 0, "=A1+A2")
        table.set_cell(4, 0, "=A6")
        table.set_cell(3, 0, "=A5")
        graph = table._graph
        before = graph.rank_raises
        table.set_cell(0, 0, "=A4")  # A1 now reads a rank-2 cell
        assert graph.rank_raises - before == 3  # A1, A2, A3, once each
        assert graph.rank[(1, 0)] < graph.rank[(2, 0)]
        assert_ranks(table, "diamond raise")
        assert not graph.holds_cycle()


# ---------------------------------------------------------------------------
# Instrumentation: one edit pays for its cone, nothing else
# ---------------------------------------------------------------------------


class TestConeCounters:
    def test_single_edit_touches_only_its_cone(self, telemetry):
        table = TableData(200, 2)
        for row in range(200):
            table.set_cell(row, 0, row)
        table.set_cell(0, 1, "=A1")
        for row in range(1, 50):
            table.set_cell(row, 1, f"=B{row}+A{row + 1}")
        assert table.value_at(49, 1) == sum(range(50))
        telemetry.reset()
        table.set_cell(0, 0, 999)  # head of the chain: 1 + 50 chain cells
        assert telemetry.counter("table.recalc_full") == 0
        assert telemetry.counter("table.recalc_incremental") == 1
        assert telemetry.counter("table.cells_recomputed") == 51
        table.set_cell(150, 0, -1)  # no dependents: the cone is the cell
        assert telemetry.counter("table.cells_recomputed") == 52
        assert table.value_at(49, 1) == sum(range(50)) + 999

    def test_equal_value_stops_propagation(self, telemetry):
        table = TableData(3, 1)
        table.set_cell(0, 0, 7)
        table.set_cell(1, 0, "=A1*0")  # always 0
        table.set_cell(2, 0, "=A2+1")
        table.value_at(2, 0)
        telemetry.reset()
        table.set_cell(0, 0, 8)  # A2 recomputes to 0 again; A3 must not
        assert telemetry.counter("table.cells_recomputed") == 2

    def test_deps_edges_gauge_tracks_graph(self, telemetry):
        table = TableData(3, 1)
        table.set_cell(1, 0, "=A1+A1")  # duplicate refs count once
        assert telemetry.gauge_value("table.deps_edges") == 1
        table.set_cell(2, 0, "=SUM(A1:A2)")
        assert telemetry.gauge_value("table.deps_edges") == 3
        table.set_cell(1, 0, "plain text")
        assert telemetry.gauge_value("table.deps_edges") == 2

    def test_counters_silent_when_metrics_off(self):
        was = obs.metrics_enabled()
        obs.configure(metrics=False, reset_data=True)
        try:
            table = TableData(2, 1)
            table.set_cell(0, 0, 3)
            table.set_cell(1, 0, "=A1")
            assert table.value_at(1, 0) == 3.0
            table.set_cell(0, 0, 4)
            assert table.value_at(1, 0) == 4.0
            assert obs.registry.counter("table.recalc_incremental") == 0
            assert obs.registry.counter("table.cells_recomputed") == 0
        finally:
            obs.configure(metrics=was, reset_data=True)


# ---------------------------------------------------------------------------
# Randomized edit scripts (the equivalence fuzzer)
# ---------------------------------------------------------------------------

_TEXTS = ["label", "x", CYCLE_ERROR, VALUE_ERROR, "nan", "inf", "=not(a"]
_FUNCTIONS = ["SUM", "AVG", "MIN", "MAX", "COUNT"]


def _random_formula(rng, rows, cols):
    """Formula source biased toward chains, fan-ins, errors and cycles."""

    def ref():
        # Occasionally off-table: those must evaluate to #VALUE in both
        # arms, and a structure op may later pull them back on-table.
        return ref_name(rng.randrange(rows + 1), rng.randrange(cols + 1))

    roll = rng.random()
    if roll < 0.40:
        return f"={ref()}{rng.choice('+-*/')}{ref()}"
    if roll < 0.60:
        return f"={rng.choice(_FUNCTIONS)}({ref()}:{ref()})"
    if roll < 0.75:
        return f"={ref()}*{rng.randint(-3, 3)}"
    if roll < 0.90:
        return f"=({ref()}+{ref()})/{rng.randint(0, 2)}"  # sometimes /0
    return f"=-{ref()}^{rng.randint(0, 3)}"


def _random_op(rng, subject, control, step):
    """One mutation applied to both tables; returns the edited key for
    cell-level ops (``None`` for structure ops)."""
    rows, cols = subject.rows, subject.cols
    roll = rng.random()
    if roll < 0.84:  # cell edit
        key = (rng.randrange(rows), rng.randrange(cols))
        pick = rng.random()
        if pick < 0.45:
            value = _random_formula(rng, rows, cols)
        elif pick < 0.70:
            # Numbers persist at %g precision (6 significant digits),
            # so feed values that survive the round-trip test exactly.
            value = rng.choice(
                [0, 1, -1, 2.5, 10 ** rng.randint(0, 6), round(rng.random(), 3)]
            )
        elif pick < 0.85:
            value = rng.choice(_TEXTS)
        else:
            value = None  # clear
        subject.set_cell(key[0], key[1], value)
        control.set_cell(key[0], key[1], value)
        return key
    if roll < 0.88:
        at = rng.randint(0, rows)
        subject.insert_row(at)
        control.insert_row(at)
    elif roll < 0.92 and rows > 1:
        at = rng.randrange(rows)
        subject.delete_row(at)
        control.delete_row(at)
    elif roll < 0.96:
        at = rng.randint(0, cols)
        subject.insert_col(at)
        control.insert_col(at)
    elif cols > 1:
        at = rng.randrange(cols)
        subject.delete_col(at)
        control.delete_col(at)
    return None


@pytest.mark.parametrize("seed", range(8))
def test_randomized_equivalence(seed):
    rng = seeded_rng(seed)
    subject, control = make_pair(rows=rng.randint(2, 7), cols=rng.randint(2, 5))
    for step in range(60):
        _random_op(rng, subject, control, step)
        label = f"{describe_seed(seed)} step {step}"
        assert_equivalent(subject, control, label)
        assert_ranks(subject, label)


@pytest.mark.parametrize("seed", range(4))
def test_randomized_announcements_are_exact(seed):
    """Each assignment announces one cell record whose extent lists the
    edited cell first, then exactly the downstream cells whose value
    changed — no more, no less."""
    from repro.class_system import FunctionObserver

    rng = seeded_rng(2000 + seed)
    subject, control = make_pair()
    changes = []
    subject.add_observer(FunctionObserver(changes.append))
    for step in range(50):
        before = grid(subject)  # materializes, so edits go incremental
        changes.clear()
        key = _random_op(rng, subject, control, step)
        if key is None:
            continue  # structure op: covered by the "shape" record
        after = grid(subject)
        label = f"{describe_seed(2000 + seed)} step {step}"
        records = [c for c in changes if c.what == "cell"]
        assert len(records) == 1, label
        assert records[0].where == key, label
        announced = list(records[0].extent)
        assert announced[0] == key, label
        assert len(set(announced)) == len(announced), label
        differing = {
            (row, col)
            for row in range(subject.rows)
            for col in range(subject.cols)
            if before[row][col] != after[row][col]
        }
        assert set(announced) == differing | {key}, label
        assert_equivalent(subject, control, label)
        assert_ranks(subject, label)


@pytest.mark.parametrize("seed", range(3))
def test_randomized_roundtrip_preserves_values(seed):
    """Rebased formulas must round-trip the external representation
    mid-script with identical computed values."""
    rng = seeded_rng(3000 + seed)
    subject, control = make_pair()
    for step in range(30):
        _random_op(rng, subject, control, step)
        if step % 10 == 9:
            label = f"{describe_seed(3000 + seed)} step {step}"
            stream = write_document(subject)
            restored = read_document(stream)
            assert write_document(restored) == stream, label
            assert grid(restored) == grid(subject), label
