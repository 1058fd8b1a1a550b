"""The dependency-graph incremental recalculation engine (§2, §5).

The paper's spreadsheet promise — "live formula recalculation under the
delayed-update discipline" — only scales if an edit's cost is bounded
by what the edit *influences*, not by the sheet.  This module provides
the machinery :class:`~repro.components.table.tabledata.TableData`
uses to recompute only the cells whose inputs changed:

* :class:`DependencyGraph` — forward edges (``cell -> cells its formula
  reads``, built from :meth:`Formula.refs` at assignment time) and the
  reverse *dependents* index, so "who reads this cell" is one lookup;

* :attr:`DependencyGraph.rank` — a topological order: a rank per
  formula cell with ``rank[dep] < rank[key]`` for every edge ``key``
  reads ``dep`` outside a reference cycle (Pearce and Kelly's dynamic
  topological order, JEA 2006, in its simplest form).  Every recompute
  — an edit, a structural edit, the full recalculation — visits cells
  in ``(rank, key)`` order (Acar-style change propagation), so no edit
  searches its cone.  :meth:`~DependencyGraph.set_refs` keeps the ranks
  on an acyclic graph: an added edge that breaks the order raises
  ``key`` and then, forward through the dependents, only the cells
  whose rank must rise;

* :attr:`DependencyGraph.cycle_members` — the cells on a reference
  cycle (self-reference included).  A raise that comes back to ``key``
  means the new edge closed a cycle; from then on, and after
  :meth:`~DependencyGraph.rebuild`, ranks and members go stale and
  :meth:`~DependencyGraph.refresh` re-derives both from one iterative
  Tarjan pass over the whole graph (:meth:`~DependencyGraph.scc_order`):
  the members of a strongly connected component share one rank.  The
  caller stamps exactly the members ``#CYCLE``;

* :class:`CycleError` — the typed error raised when a formula *reads* a
  cell stamped ``#CYCLE``.  Only true cycle members display ``#CYCLE``;
  cells downstream of a cycle catch :class:`CycleError` (a
  :class:`FormulaError`) and display ``#VALUE`` like any other
  unevaluable reference.

Keys are ``(row, col)`` tuples throughout.  The graph stores only cells
that carry formulas (plus the reverse index for their referents), so a
100k-cell sheet of numbers with a few hundred formulas costs a few
hundred graph entries, not 100k.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .formula import FormulaError

__all__ = ["CycleError", "DependencyGraph"]

Key = Tuple[int, int]


class CycleError(FormulaError):
    """A formula read a cell that is a member of a reference cycle.

    Typed so recalculation can distinguish "my input is circular" from
    any other evaluation fault without inspecting message strings.  It
    still *is* a :class:`FormulaError`: generic handlers keep working.
    """


class DependencyGraph:
    """Reference edges between cells, indexed in both directions.

    ``deps[key]`` is the frozen set of cells ``key``'s formula reads;
    ``dependents[key]`` is the live set of formula cells that read
    ``key``.  Non-formula cells never appear in ``deps`` and appear in
    ``dependents`` only while some formula references them.

    ``rank[key]`` orders the formula cells: every cell a formula reads
    from outside its own cycle ranks strictly lower (cells absent from
    ``rank`` rank 0).  ``cycle_members`` holds the cells on a reference
    cycle.  :meth:`set_refs` keeps the ranks while the graph is acyclic.
    Once an added edge closes a cycle, after any edge change while the
    graph holds one, and after :meth:`rebuild`, ranks and members go
    stale until :meth:`refresh` re-derives them.  ``rank_raises`` counts
    the ranks :meth:`set_refs` raised, so a bench can show that entering
    a formula touches its downstream region, not the sheet.
    """

    __slots__ = ("deps", "dependents", "edge_count", "rank", "rank_raises",
                 "cycle_members", "_stale")

    def __init__(self) -> None:
        self.deps: Dict[Key, FrozenSet[Key]] = {}
        self.dependents: Dict[Key, Set[Key]] = {}
        self.edge_count = 0
        self.rank: Dict[Key, int] = {}
        self.rank_raises = 0
        self.cycle_members: FrozenSet[Key] = frozenset()
        self._stale = False  # ranks and members await refresh()

    # ------------------------------------------------------------------
    # Edge maintenance (called from every cell assignment)
    # ------------------------------------------------------------------

    def set_refs(self, key: Key, refs: Iterable[Key]) -> None:
        """Declare the cells ``key``'s formula reads (empty to clear)."""
        new = frozenset(refs)
        old = self.deps.get(key, frozenset())
        if new == old:
            return
        for ref in old - new:
            holders = self.dependents.get(ref)
            if holders is not None:
                holders.discard(key)
                if not holders:
                    del self.dependents[ref]
        added = new - old
        for ref in added:
            self.dependents.setdefault(ref, set()).add(key)
        self.edge_count += len(new) - len(old)
        if new:
            self.deps[key] = new
        else:
            self.deps.pop(key, None)
        if self._stale or self.cycle_members:
            self._stale = True  # ranks are not kept while a cycle stands
        elif not new:
            self.rank.pop(key, None)  # rank 0 still precedes its readers
        elif added:
            # Removing an edge never breaks the order; only an added
            # edge from a cell ranked at or above ``key`` does.
            rank = self.rank
            floor = max(rank.get(ref, 0) for ref in added) + 1
            if floor > rank.get(key, 0):
                self._raise(key, floor)

    def clear(self, key: Key) -> None:
        """Remove ``key``'s outgoing edges (its formula went away)."""
        self.set_refs(key, ())

    def rebuild(self, formulas: Dict[Key, Iterable[Key]]) -> None:
        """Reconstruct the whole graph (after a structural rebase).

        Ranks and cycle members are re-derived by the next :meth:`refresh`.
        """
        self.deps = {}
        self.dependents = {}
        self.edge_count = 0
        self.rank = {}
        self._stale = True
        for key, refs in formulas.items():
            self.set_refs(key, refs)

    def _raise(self, key: Key, level: int) -> None:
        """Raise ``key`` to ``level`` and its dependents as far as needed.

        Cells are raised in the order of their old ranks, which is a
        topological order of every edge but the ones just added into
        ``key``, so each cell rises once, after all its raised inputs.
        Reaching ``key`` again means the added edges closed a cycle.
        """
        rank = self.rank
        dependents = self.dependents
        want = {key: level}
        heap = [(rank.get(key, 0), key)]
        while heap:
            node = heappop(heap)[1]
            level = want.pop(node)
            rank[node] = level
            self.rank_raises += 1
            for reader in dependents.get(node, ()):
                if reader == key:
                    self._stale = True  # a cycle: refresh() re-derives
                    return
                if reader in want:
                    if want[reader] <= level:
                        want[reader] = level + 1
                elif rank[reader] <= level:
                    want[reader] = level + 1
                    heappush(heap, (rank[reader], reader))

    def refresh(self) -> None:
        """Make :attr:`rank` and :attr:`cycle_members` valid if stale."""
        if self._stale:
            self._rerank()

    def _rerank(self) -> None:
        """Derive every rank, and the cycle members, from one Tarjan pass.

        Members of one strongly connected component share a rank, one
        above the highest cell any member reads from outside it.
        """
        deps = self.deps
        rank: Dict[Key, int] = {}
        members: List[Key] = []
        for component in self.scc_order(deps):
            inside = set(component)
            level = 1 + max(
                (rank.get(ref, 0)
                 for key in component for ref in deps[key]
                 if ref not in inside),
                default=0,
            )
            for key in component:
                rank[key] = level
            if self.is_cycle(component):
                members.extend(component)
        self.rank = rank
        self.cycle_members = frozenset(members)
        self._stale = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def dirty_cone(self, seeds: Iterable[Key]) -> Set[Key]:
        """Every cell whose value may change when ``seeds`` change.

        The seeds themselves plus the transitive closure over reverse
        edges.  No recalc path calls it (they follow ranks);
        ``perfbench/tracing.py`` wraps it by name.
        """
        cone: Set[Key] = set(seeds)
        frontier: List[Key] = list(cone)
        while frontier:
            key = frontier.pop()
            for dependent in self.dependents.get(key, ()):
                if dependent not in cone:
                    cone.add(dependent)
                    frontier.append(dependent)
        return cone

    def scc_order(self, cone: Iterable[Key]) -> List[Tuple[Key, ...]]:
        """Strongly connected components of the cone, dependencies first.

        Iterative Tarjan over the subgraph induced by ``cone`` (edges
        leaving the cone are ignored).  Tarjan emits a component only
        after every component reachable from it, which for "reads"
        edges means *evaluation order*, so :meth:`_rerank` can rank each
        component above everything it reads.  Components with more than
        one member, or whose single member references itself, are
        reference cycles.

        Iterative on an explicit stack: a 100k-cell chain must not hit
        CPython's recursion limit.
        """
        members = set(cone)
        index: Dict[Key, int] = {}
        lowlink: Dict[Key, int] = {}
        on_stack: Set[Key] = set()
        stack: List[Key] = []
        components: List[Tuple[Key, ...]] = []
        counter = 0

        for root in members:
            if root in index:
                continue
            # Each frame is [key, iterator over its in-cone deps].
            work: List[List] = [[root, None]]
            while work:
                frame = work[-1]
                key = frame[0]
                if frame[1] is None:
                    index[key] = lowlink[key] = counter
                    counter += 1
                    stack.append(key)
                    on_stack.add(key)
                    frame[1] = iter(
                        dep for dep in self.deps.get(key, ())
                        if dep in members
                    )
                advanced = False
                for dep in frame[1]:
                    if dep not in index:
                        work.append([dep, None])
                        advanced = True
                        break
                    if dep in on_stack:
                        lowlink[key] = min(lowlink[key], index[dep])
                if advanced:
                    continue
                work.pop()
                if lowlink[key] == index[key]:
                    component: List[Key] = []
                    while True:
                        node = stack.pop()
                        on_stack.discard(node)
                        component.append(node)
                        if node == key:
                            break
                    components.append(tuple(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[key])
        return components

    def is_cycle(self, component: Tuple[Key, ...]) -> bool:
        """Is this SCC a true reference cycle (incl. self-reference)?"""
        if len(component) > 1:
            return True
        key = component[0]
        return key in self.deps.get(key, frozenset())

    def __repr__(self) -> str:
        return (
            f"<DependencyGraph {len(self.deps)} formula cells, "
            f"{self.edge_count} edges>"
        )
