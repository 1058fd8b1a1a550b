r"""The table/spreadsheet data object (paper sections 1, 2, 5, Fig. 5).

A :class:`TableData` is a rows x cols grid whose cells hold text,
numbers, formulas, or **embedded data objects** — the table is a
multi-media component just like text: "The text and table components
are multi-media components, in that they allow the embedding [of] other
components within their description."

Formulas recalculate **incrementally** through a dependency graph
(:mod:`.recalc`): every cell assignment updates the graph's edges and
topological ranks from :meth:`Formula.refs`, and once values have been
materialised an edit recomputes only the cells whose inputs changed,
popped from a heap in rank order.  Every live edit takes that one path:
value and formula edits, structural edits, and edits on a sheet that
holds a reference cycle.  Exactly the members of a reference cycle are
stored ``#CYCLE`` and never evaluated; cells that merely *read* one
display ``#VALUE`` (the read raises the typed
:class:`~.recalc.CycleError`).  The full recalculation walks the
formula cells in the same rank order, from ranks derived afresh.
Structural edits (``insert_row`` .. ``delete_col``) rebase cells, cached
values, formula references and the graph through one coordinate
mapping; references into a deleted row/column become ``#REF`` and
evaluate to ``#VALUE``.

Every mutation follows the delayed-update discipline and announces
**one** ``"cell"`` record per assignment: ``where`` is the edited
``(row, col)`` and ``extent`` the tuple of keys whose value actually
changed, the edited key first (just ``(key,)`` while values are still
lazy).  The data object says *what* changed; each observer — the table
view, the pie chart's auxiliary data object (§2's observer example) —
works out its own damage from that one record, so a 480-cell cone
costs one notification, not 480.  A structural edit announces its
``"shape"`` record, then at most one ``("cell", detail="recalc")``
record whose ``extent`` lists the values its rebased formulas changed.

Telemetry (``ANDREW_METRICS=1``): ``table.recalc_full`` /
``table.recalc_incremental`` count the two recalc kinds,
``table.cells_recomputed`` counts every cell evaluation either way,
and the ``table.deps_edges`` gauge tracks the live graph size.

External representation body::

    @dims <rows> <cols>
    @cell <row> <col> n <number>
    @cell <row> <col> t <escaped text>
    @cell <row> <col> f <formula>
    @cell <row> <col> o
    \begindata{...}...\enddata{...}
    \view{<viewtype>, <id>}

Text cells escape backslash as ``\\`` and newline as ``\n``.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ... import obs
from ...core.dataobject import DataObject
from ...core.datastream import (
    BeginObject,
    BodyLine,
    DataStreamError,
    EndObject,
    ViewRef,
)
from .formula import (
    CellRef,
    Formula,
    FormulaError,
    range_cells,
    read_cells,
    ref_name,
)
from .recalc import CycleError, DependencyGraph

__all__ = ["TableData", "Cell", "CYCLE_ERROR", "VALUE_ERROR"]

CYCLE_ERROR = "#CYCLE"
VALUE_ERROR = "#VALUE"


class _ErrorValue(str):
    """A computed error value (``#CYCLE``/``#VALUE``).

    A distinct type so recalculation can tell an error *result* from a
    text cell that happens to spell the same string — equality and
    display still behave like the plain string.
    """

    __slots__ = ()


_CYCLE = _ErrorValue(CYCLE_ERROR)
_VALUE = _ErrorValue(VALUE_ERROR)

#: Distinguishes "no cached value" from every real value in
#: change-detection comparisons (``None`` is not used: an empty cell's
#: computed value is represented by *absence* from the cache).
_ABSENT = object()


class Cell:
    """One table cell.

    ``content`` is one of: ``None`` (empty), ``str`` (text), ``float``
    (number), :class:`Formula`, or a :class:`DataObject` with its view
    type in ``view_type``.
    """

    __slots__ = ("content", "view_type")

    def __init__(self, content=None, view_type: Optional[str] = None) -> None:
        self.content = content
        self.view_type = view_type

    @property
    def kind(self) -> str:
        if self.content is None:
            return "empty"
        if isinstance(self.content, Formula):
            return "formula"
        if isinstance(self.content, float):
            return "number"
        if isinstance(self.content, DataObject):
            return "object"
        return "text"

    def __repr__(self) -> str:
        return f"Cell({self.kind}: {self.content!r})"


class TableData(DataObject):
    """A grid of cells with spreadsheet recalculation."""

    atk_name = "table"

    #: Class-level switch: instances (the equivalence fuzzer's control
    #: arm, A/B benches) may set ``incremental_enabled = False`` to get
    #: the seed behaviour — every edit invalidates, every read recalcs
    #: the whole sheet.
    incremental_enabled = True

    def __init__(self, rows: int = 4, cols: int = 4) -> None:
        super().__init__()
        if rows < 1 or cols < 1:
            raise ValueError(f"table must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._cells: Dict[Tuple[int, int], Cell] = {}
        self._values: Dict[Tuple[int, int], Union[float, str]] = {}
        self._values_valid = False
        self._graph = DependencyGraph()
        self.recalc_count = 0  # full recalculations (benches read this)
        self.incremental_count = 0  # incremental recalculations

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(
                f"cell ({row}, {col}) outside {self.rows}x{self.cols} table"
            )

    def cell(self, row: int, col: int) -> Cell:
        self._check(row, col)
        return self._cells.get((row, col), Cell())

    def set_cell(self, row: int, col: int, value) -> None:
        """Assign a cell from a Python value or user-typed string.

        Strings are interpreted the way the original spreadsheet did at
        entry time: ``=...`` parses as a formula, numeric literals
        become numbers, everything else is text.  Pass a
        :class:`DataObject` to embed a component (default view type
        ``<tag>view``).

        Once values have been materialised (any :meth:`value_at` read),
        the edit recomputes only the cells whose inputs changed.  Either
        way it announces exactly one ``"cell"`` record: ``where`` is
        ``(row, col)`` and ``extent`` the keys whose value changed,
        ``(row, col)`` first.
        """
        self._check(row, col)
        key = (row, col)
        cell = self._coerce(value)
        if cell.content is None:
            self._cells.pop(key, None)
        else:
            self._cells[key] = cell
        self._after_assign(key, cell)

    def _after_assign(self, key: Tuple[int, int], cell: Cell) -> None:
        """Re-index the graph for ``key`` and repair/announce values."""
        graph = self._graph
        before = graph.cycle_members  # the members the cached values show
        if isinstance(cell.content, Formula):
            graph.set_refs(
                key, ((ref.row, ref.col) for ref in cell.content.refs())
            )
        else:
            graph.clear(key)
        if obs.metrics_on:
            obs.registry.gauge("table.deps_edges", graph.edge_count)
        if not (self.incremental_enabled and self._values_valid):
            # Values were never materialised (sheet still being built,
            # or incremental repair disabled): stay lazy, one record.
            self._values_valid = False
            self.changed("cell", where=key, extent=(key,))
            return
        self.incremental_count += 1
        if obs.metrics_on:
            obs.registry.inc("table.recalc_incremental")
        graph.refresh()
        changed_keys = self._propagate(
            (key, *(before ^ graph.cycle_members)))
        downstream = tuple(other for other in changed_keys if other != key)
        self.changed("cell", where=key, extent=(key,) + downstream)

    @staticmethod
    def _coerce(value) -> Cell:
        if value is None or value == "":
            return Cell()
        if isinstance(value, Cell):
            return value
        if isinstance(value, Formula):
            return Cell(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return Cell(float(value))
        if isinstance(value, DataObject):
            return Cell(value, view_type=f"{value.type_tag}view")
        if isinstance(value, str):
            if value.startswith("="):
                try:
                    return Cell(Formula(value))
                except FormulaError:
                    return Cell(value)  # keep the bad formula as text
            try:
                number = float(value)
            except ValueError:
                return Cell(value)
            if not math.isfinite(number):
                # float() accepts "nan"/"inf"/"infinity" (any case/sign)
                # but a spreadsheet user typing those means text.
                return Cell(value)
            return Cell(number)
        raise TypeError(f"cannot store {value!r} in a table cell")

    def embed_object(self, row: int, col: int, data: DataObject,
                     view_type: Optional[str] = None) -> None:
        """Embed a component in a cell (the Fig. 5 pattern)."""
        self._check(row, col)
        cell = Cell(data, view_type or f"{data.type_tag}view")
        self._cells[(row, col)] = cell
        self._after_assign((row, col), cell)

    def clear_cell(self, row: int, col: int) -> None:
        self.set_cell(row, col, None)

    def cells(self) -> Iterator[Tuple[int, int, Cell]]:
        """All non-empty cells, row-major."""
        for (row, col) in sorted(self._cells):
            yield (row, col, self._cells[(row, col)])

    def embedded_objects(self) -> List[DataObject]:
        return [
            cell.content
            for _, _, cell in self.cells()
            if isinstance(cell.content, DataObject)
        ]

    # ------------------------------------------------------------------
    # Recalculation
    # ------------------------------------------------------------------

    def value_at(self, row: int, col: int) -> Union[float, str]:
        """The computed value: numbers/formula results as float, text
        as str, errors as ``#CYCLE``/``#VALUE``, empty as 0.0 for
        formula reads but ``""`` here."""
        self._check(row, col)
        if not self._values_valid:
            self._recalculate()
        return self._values.get((row, col), "")

    def display_at(self, row: int, col: int) -> str:
        """The string a view shows for the cell."""
        value = self.value_at(row, col)
        if isinstance(value, float):
            return f"{value:g}"
        cell = self.cell(row, col)
        if cell.kind == "object":
            return ""  # the embedded view draws itself
        return str(value)

    def _recalculate(self) -> None:
        """Full-sheet recalc from freshly derived ranks.

        The reference the incremental path is checked against: it
        shares neither the maintained ranks nor the change-driven queue.
        Cells outside the graph (rank 0) are stored first, then the
        formula cells in ``(rank, key)`` order, cycle members stamped.
        """
        self.recalc_count += 1
        if obs.metrics_on:
            obs.registry.inc("table.recalc_full")
        graph = self._graph
        graph._rerank()
        rank, members = graph.rank, graph.cycle_members
        self._values = {}
        for key in self._cells:
            if key not in rank:
                self._store(key, self._compute_one(key))
        for key in sorted(rank, key=lambda key: (rank[key], key)):
            self._store(
                key, _CYCLE if key in members else self._compute_one(key))
        if obs.metrics_on:
            obs.registry.inc("table.cells_recomputed", len(self._cells))
        self._values_valid = True

    def _resolve(self, row: int, col: int) -> float:
        """Read a referenced cell's cached value for formula evaluation.

        Text, objects and empty cells read as 0; reading a cycle member
        raises the typed :class:`CycleError`; any other error value (or
        an off-table reference) raises :class:`FormulaError`, so the
        reading formula displays ``#VALUE``.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise FormulaError(f"reference {ref_name(row, col)} off table")
        value = self._values.get((row, col), "")
        if isinstance(value, float):
            return value
        if isinstance(value, _ErrorValue):
            if value == CYCLE_ERROR:
                raise CycleError(
                    f"{ref_name(row, col)} is in a reference cycle"
                )
            raise FormulaError(f"{ref_name(row, col)} has no value")
        return 0.0  # text/objects/empty read as 0 in formulas

    def _read_range(self, top: int, left: int, bottom: int,
                    right: int) -> List[float]:
        """A formula range's values in row-major order, as
        :func:`~.formula.read_cells` over :meth:`_resolve` reads them.

        One bounds check for the whole range, then the cached values
        are read straight from ``_values``; only a cell holding no
        number goes through :meth:`_resolve`, in row-major order, so
        the first bad cell raises the error a per-cell read raises.
        """
        if not (0 <= top and bottom < self.rows
                and 0 <= left and right < self.cols):
            return read_cells(self._resolve, top, left, bottom, right)
        values = list(map(self._values.get,
                          range_cells(top, left, bottom, right)))
        if set(map(type, values)) == {float}:
            return values
        return [value if type(value) is float
                else float(self._resolve(*key))
                for key, value in zip(range_cells(top, left, bottom, right),
                                      values)]

    def _compute_one(self, key: Tuple[int, int]):
        """One cell's value from its content; ``None`` means empty."""
        cell = self._cells.get(key)
        if cell is None or cell.content is None:
            return None
        content = cell.content
        if isinstance(content, float):
            return content
        if isinstance(content, Formula):
            try:
                value = content.evaluate(self._resolve, self._read_range)
            except (ValueError, ArithmeticError):
                # FormulaError (a ValueError), math domain errors, and
                # overflow/zero-division all surface as #VALUE.
                return _VALUE
            if not math.isfinite(value):
                return _VALUE  # non-finite results are errors, not data
            return value
        if isinstance(content, str):
            return content
        return ""  # embedded object: no scalar value

    def _store(self, key: Tuple[int, int], new) -> bool:
        """Cache ``new`` (``None``: empty) for ``key``; did it change?"""
        values = self._values
        old = values.get(key, _ABSENT)
        if new is None:
            if old is _ABSENT:
                return False
            del values[key]
            return True
        if old is _ABSENT or old != new or type(old) is not type(new):
            values[key] = new
            return True
        return False

    def _propagate(
        self, seeds: Iterable[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """Recompute from ``seeds`` in rank order; return changed keys.

        A min-heap keyed by ``(rank, key)`` pops every cell after all
        the cells it reads that could change, so each is evaluated at
        most once.  A cell's readers are queued only when its value
        changed: an edit whose value lands equal evaluates the seed
        alone.  Cycle members are stored ``#CYCLE``, never evaluated;
        their readers rank higher and read ``#VALUE``.  Needs valid
        ranks (:meth:`DependencyGraph.refresh`).
        """
        graph = self._graph
        rank, dependents = graph.rank, graph.dependents
        members = graph.cycle_members
        compute, store = self._compute_one, self._store
        changed: List[Tuple[int, int]] = []
        queued = set(seeds)
        heap = [(rank.get(key, 0), key) for key in queued]
        heapify(heap)
        while heap:
            key = heappop(heap)[1]
            # ``members and``: an acyclic sheet skips hashing every key.
            new = _CYCLE if members and key in members else compute(key)
            if not store(key, new):
                continue  # no reader of this cell needs a look
            changed.append(key)
            for reader in dependents.get(key, ()):
                if reader not in queued:
                    queued.add(reader)
                    heappush(heap, (rank[reader], reader))
        if obs.metrics_on:
            obs.registry.inc("table.cells_recomputed", len(queued))
        return changed

    def column_values(self, col: int) -> List[float]:
        """The numeric values down a column (non-numbers skipped)."""
        out = []
        for row in range(self.rows):
            value = self.value_at(row, col)
            if isinstance(value, float):
                out.append(value)
        return out

    def row_values(self, row: int) -> List[float]:
        out = []
        for col in range(self.cols):
            value = self.value_at(row, col)
            if isinstance(value, float):
                out.append(value)
        return out

    # ------------------------------------------------------------------
    # Structure edits
    # ------------------------------------------------------------------

    def _structural_edit(
        self,
        row_map: Callable[[int], Optional[int]],
        col_map: Callable[[int], Optional[int]],
    ) -> List[Tuple[int, int]]:
        """Rebase cells, cached values, formulas and the graph.

        ``row_map``/``col_map`` send an old index to its new index, or
        to ``None`` if the structural edit deleted it.  One mapping
        drives everything: cell keys shift, cached values shift with
        them, and every formula is rewritten through
        :meth:`Formula.rebase` — a reference into a deleted row/column
        (or a destroyed range endpoint) becomes ``#REF``, which
        evaluates to ``#VALUE``.

        Returns the keys whose value changed, recomputed in rank order
        from the *retouched* formulas (those whose source actually
        changed) and the cells whose cycle membership changed — empty
        when values are still lazy.  The caller must have updated
        ``self.rows``/``self.cols`` first (bounds checks during
        recompute use the new shape).
        """

        def move(key: Tuple[int, int]) -> Optional[Tuple[int, int]]:
            row, col = row_map(key[0]), col_map(key[1])
            return None if row is None or col is None else (row, col)

        def map_ref(ref: CellRef) -> Optional[CellRef]:
            key = move((ref.row, ref.col))
            if key is None:
                return None
            return ref if key == (ref.row, ref.col) else CellRef(*key)

        moved_cells: Dict[Tuple[int, int], Cell] = {}
        retouched: Set[Tuple[int, int]] = set()
        for old, cell in self._cells.items():
            key = move(old)
            if key is None:
                continue  # the cell itself was deleted
            content = cell.content
            if isinstance(content, Formula):
                rebased = content.rebase(map_ref)
                if rebased is not content:
                    cell = Cell(rebased, cell.view_type)
                    retouched.add(key)
            moved_cells[key] = cell
        self._cells = moved_cells

        moved_values: Dict[Tuple[int, int], Union[float, str]] = {}
        for old, value in self._values.items():
            key = move(old)
            if key is not None:
                moved_values[key] = value
        self._values = moved_values

        graph = self._graph
        before = set(map(move, graph.cycle_members)) - {None}
        graph.rebuild({
            key: tuple((ref.row, ref.col) for ref in cell.content.refs())
            for key, cell in self._cells.items()
            if isinstance(cell.content, Formula)
        })
        if obs.metrics_on:
            obs.registry.gauge("table.deps_edges", graph.edge_count)
        if not (self.incremental_enabled and self._values_valid):
            self._values_valid = False
            return []
        graph.refresh()
        seeds = retouched | (before ^ graph.cycle_members)
        if not seeds:
            return []
        self.incremental_count += 1
        if obs.metrics_on:
            obs.registry.inc("table.recalc_incremental")
        return self._propagate(seeds)

    def _announce_structure(self, kind: str, at: int, extent: int,
                            changed_keys: List[Tuple[int, int]]) -> None:
        self.changed("shape", where=(kind, at), extent=extent)
        if changed_keys:
            self.changed("cell", where=changed_keys[0],
                         extent=tuple(changed_keys), detail="recalc")

    def insert_row(self, at: int) -> None:
        """Insert an empty row before ``at`` (0..rows)."""
        if not 0 <= at <= self.rows:
            raise IndexError(f"row {at} outside 0..{self.rows}")
        self.rows += 1
        changed = self._structural_edit(
            lambda row: row + 1 if row >= at else row, lambda col: col
        )
        self._announce_structure("row", at, 1, changed)

    def delete_row(self, at: int) -> None:
        if not 0 <= at < self.rows:
            raise IndexError(f"row {at} outside 0..{self.rows - 1}")
        if self.rows == 1:
            raise ValueError("cannot delete the last row")
        self.rows -= 1
        changed = self._structural_edit(
            lambda row: None if row == at else (row - 1 if row > at else row),
            lambda col: col,
        )
        self._announce_structure("row", at, -1, changed)

    def insert_col(self, at: int) -> None:
        if not 0 <= at <= self.cols:
            raise IndexError(f"column {at} outside 0..{self.cols}")
        self.cols += 1
        changed = self._structural_edit(
            lambda row: row, lambda col: col + 1 if col >= at else col
        )
        self._announce_structure("col", at, 1, changed)

    def delete_col(self, at: int) -> None:
        if not 0 <= at < self.cols:
            raise IndexError(f"column {at} outside 0..{self.cols - 1}")
        if self.cols == 1:
            raise ValueError("cannot delete the last column")
        self.cols -= 1
        changed = self._structural_edit(
            lambda row: row,
            lambda col: None if col == at else (col - 1 if col > at else col),
        )
        self._announce_structure("col", at, -1, changed)

    # ------------------------------------------------------------------
    # External representation
    # ------------------------------------------------------------------

    @staticmethod
    def _escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace("\n", "\\n")

    @staticmethod
    def _unescape(text: str) -> str:
        out: List[str] = []
        i = 0
        while i < len(text):
            if text[i] == "\\" and i + 1 < len(text):
                nxt = text[i + 1]
                out.append("\n" if nxt == "n" else nxt)
                i += 2
            else:
                out.append(text[i])
                i += 1
        return "".join(out)

    def write_body(self, writer) -> None:
        writer.write_body_line(f"@dims {self.rows} {self.cols}")
        for row, col, cell in self.cells():
            prefix = f"@cell {row} {col}"
            if cell.kind == "number":
                writer.write_body_line(f"{prefix} n {cell.content:g}")
            elif cell.kind == "formula":
                writer.write_body_line(f"{prefix} f {cell.content.source}")
            elif cell.kind == "text":
                encoded = self._escape(cell.content)
                # Long text cells wrap as repeated '+'-continuation lines;
                # never split in the middle of an escape pair.
                first = True
                while True:
                    room = 74 - len(prefix)
                    chunk = encoded[:room]
                    trailing = len(chunk) - len(chunk.rstrip("\\"))
                    if trailing % 2 == 1 and len(chunk) < len(encoded):
                        chunk = chunk[:-1]
                    encoded = encoded[len(chunk):]
                    marker = "t" if first else "+"
                    writer.write_body_line(f"{prefix} {marker} {chunk}")
                    first = False
                    if not encoded:
                        break
            elif cell.kind == "object":
                writer.write_body_line(f"{prefix} o")
                object_id = writer.write_object(cell.content)
                writer.write_view_ref(cell.view_type or "unknown", object_id)

    def read_body(self, reader) -> None:
        self._cells = {}
        self._values = {}
        self._values_valid = False
        self._graph = DependencyGraph()
        pending_object_cell: Optional[Tuple[int, int]] = None
        last_text_cell: Optional[Tuple[int, int]] = None
        for event in reader.body_events():
            if isinstance(event, BodyLine):
                pending_object_cell, last_text_cell = self._read_line(
                    event, pending_object_cell, last_text_cell
                )
            elif isinstance(event, BeginObject):
                reader.read_object(event)
            elif isinstance(event, ViewRef):
                if pending_object_cell is None:
                    raise DataStreamError(
                        "\\view in table body without an 'o' cell",
                        event.line,
                    )
                data = reader.objects_by_id.get(event.object_id)
                if data is None:
                    raise DataStreamError(
                        f"unknown object id {event.object_id}", event.line
                    )
                self._cells[pending_object_cell] = Cell(
                    data, view_type=event.view_type
                )
                pending_object_cell = None
            elif isinstance(event, EndObject):
                break
        self._graph.rebuild({
            key: tuple((ref.row, ref.col) for ref in cell.content.refs())
            for key, cell in self._cells.items()
            if isinstance(cell.content, Formula)
        })
        self.changed("shape", where=("all", 0))

    def _read_line(self, event: BodyLine, pending, last_text):
        parts = event.text.split(" ", 4)
        if not parts or not parts[0]:
            return pending, last_text
        if parts[0] == "@dims":
            self.rows, self.cols = int(parts[1]), int(parts[2])
            return pending, last_text
        if parts[0] != "@cell":
            raise DataStreamError(
                f"unknown table directive {event.text!r}", event.line
            )
        if len(parts) < 4:
            raise DataStreamError(f"malformed cell {event.text!r}", event.line)
        row, col, kind = int(parts[1]), int(parts[2]), parts[3]
        payload = parts[4] if len(parts) > 4 else ""
        key = (row, col)
        if kind == "n":
            self._cells[key] = Cell(float(payload))
        elif kind == "f":
            try:
                self._cells[key] = Cell(Formula(payload))
            except FormulaError:
                self._cells[key] = Cell(payload)
        elif kind == "t":
            self._cells[key] = Cell(self._unescape(payload))
            return pending, key
        elif kind == "+":
            if last_text != key or key not in self._cells:
                raise DataStreamError(
                    f"continuation for non-open text cell {event.text!r}",
                    event.line,
                )
            cell = self._cells[key]
            self._cells[key] = Cell(cell.content + self._unescape(payload))
            return pending, key
        elif kind == "o":
            return key, None
        else:
            raise DataStreamError(
                f"unknown cell kind {kind!r} in {event.text!r}", event.line
            )
        return pending, None

    def __repr__(self) -> str:
        return f"<table {self.rows}x{self.cols}, {len(self._cells)} cells>"
