"""The delayed-update queue (paper section 2).

"Since only one view will be causing the data object to change, and
multiple views may have to reflect the change, a delayed update
mechanism must be used."

Views never repaint inside a mutation.  They call ``want_update`` —
which lands here as a damage record — and the interaction manager
flushes the queue between events, sending update events back down the
tree.  Damage rectangles are coalesced per view, and enqueueing a view
whose ancestor is already fully damaged is a no-op: the §3 containment
invariant guarantees every descendant rectangle lies inside its
ancestor, so a fully-damaged ancestor's repaint already covers it.

Metrics (when ``ANDREW_METRICS=1``): ``update.enqueued``,
``update.coalesced``, ``update.subsumed``, ``update.drained``,
``update.flushes``, ``update.discarded``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..graphics.geometry import Rect

__all__ = ["UpdateQueue"]


class UpdateQueue:
    """Pending damage, keyed by view, in request order."""

    def __init__(self) -> None:
        self._damage: Dict[int, Tuple[object, Rect]] = {}
        self._fully_damaged: Set[int] = set()
        self.enqueue_count = 0      # total requests (for the benches)
        self.subsumed_count = 0     # requests absorbed by a damaged ancestor
        self.flush_count = 0        # total flushes

    def __len__(self) -> int:
        return len(self._damage)

    def is_empty(self) -> bool:
        return not self._damage

    def enqueue(self, view, rect: Optional[Rect] = None) -> None:
        """Record that ``rect`` of ``view`` (local coords) needs repair.

        ``None`` means the whole view.  Damage for the same view is
        coalesced into a single bounding rectangle — the classic
        damage-union policy.  If an *ancestor* of ``view`` is already
        queued with full damage, the request is dropped (subsumed): the
        ancestor's repaint covers this view's rectangle.
        """
        self.enqueue_count += 1
        if obs.metrics_on:
            obs.registry.inc("update.enqueued")
        local = Rect(0, 0, view.bounds.width, view.bounds.height)
        if rect is None:
            rect = local
        if self._fully_damaged:
            ancestor = getattr(view, "parent", None)
            while ancestor is not None:
                if id(ancestor) in self._fully_damaged:
                    self.subsumed_count += 1
                    if obs.metrics_on:
                        obs.registry.inc("update.subsumed")
                    return
                ancestor = getattr(ancestor, "parent", None)
        key = id(view)
        if key in self._damage:
            _, existing = self._damage[key]
            rect = existing.union(rect)
            if obs.metrics_on:
                obs.registry.inc("update.coalesced")
        self._damage[key] = (view, rect)
        if not local.is_empty() and rect.contains_rect(local):
            self._fully_damaged.add(key)

    def drain(self) -> List[Tuple[object, Rect]]:
        """Remove and return all pending (view, damage) pairs, oldest first."""
        self.flush_count += 1
        items = list(self._damage.values())
        self._damage.clear()
        self._fully_damaged.clear()
        if obs.metrics_on:
            obs.registry.inc("update.flushes")
            obs.registry.inc("update.drained", len(items))
        return items

    def pending_views(self) -> List[object]:
        return [view for view, _ in self._damage.values()]

    def pending_damage(self) -> List[Tuple[object, Rect]]:
        """The queued (view, local-rect) pairs, without draining them.

        The scroll shift-blit inspects this before it shifts: damage
        queued against the scroll area marks stale pixels, which only
        the scrolling view's own damage (see :meth:`move`) may follow.
        """
        return list(self._damage.values())

    def move(self, view, area: Rect, dy: int) -> None:
        """Move ``view``'s queued damage inside ``area`` by ``dy`` rows,
        clipped to ``area`` — the stale pixels it marks were just
        shifted there.

        Rows moved out of ``area`` left the surface with the shift, so
        they leave the damage too.  Damage outside ``area`` stays.
        """
        key = id(view)
        entry = self._damage.get(key)
        if entry is None or not area.contains_rect(entry[1]):
            return
        moved = entry[1].offset(0, dy).intersection(area)
        if moved.is_empty():
            del self._damage[key]
        else:
            self._damage[key] = (view, moved)

    def discard(self, view) -> None:
        """Drop pending damage for ``view`` (it was destroyed/unlinked)."""
        if self._damage.pop(id(view), None) is not None:
            self._fully_damaged.discard(id(view))
            if obs.metrics_on:
                obs.registry.inc("update.discarded")
