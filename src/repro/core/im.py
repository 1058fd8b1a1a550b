"""The interaction manager: root of the view tree (paper section 3).

"At the top of the tree is a view called the interaction manager which
is a window provided by the underlying window system.  The interaction
manager has the responsibility of translating input events such as key
strokes, mouse events, menu events and exposure events from the window
system to the rest of the view tree.  The interaction manager is also
responsible for synchronizing drawing requests between views.  By
design, it has one child view, of arbitrary type."

:class:`InteractionManager` wraps a backend window, owns the single
child view, translates the backend's event queue into view-tree
protocol, maintains the mouse grab, the keyboard focus and pending
chord state, arbitrates the cursor and the menu set, and runs the
delayed-update queue (requests up, update pass back down).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from .. import obs
from ..graphics.geometry import Point, Rect
from ..testing import faultinject
from ..wm.base import BackendWindow, Cursor, WindowSystem
from ..wm.events import (
    Event,
    KeyEvent,
    MenuEvent,
    MouseAction,
    MouseEvent,
    ResizeEvent,
    TimerEvent,
    UpdateEvent,
)
from . import faults
from .keymap import Keymap
from .menus import MenuSet
from .update import UpdateQueue
from .view import View

__all__ = ["InteractionManager"]


class InteractionManager:
    """One window's worth of toolkit: the view-tree root."""

    def __init__(self, window_system: WindowSystem, title: str = "andrew",
                 width: int = 80, height: int = 24) -> None:
        self.window_system = window_system
        self.window: BackendWindow = window_system.create_window(
            title, width, height
        )
        self.child: Optional[View] = None
        self.updates = UpdateQueue()
        self.focus: Optional[View] = None
        self._grab: Optional[View] = None
        self._pending_keymap: Optional[Keymap] = None
        self._pending_owner: Optional[View] = None
        self._timer_subscribers: List[View] = []
        self._tick = 0
        self.events_processed = 0
        #: Queued scroll shifts: id(view) -> [view, area, dy, strip].
        #: Executed (oldest first) at the head of the next repaint or
        #: flush, *before* any damage repaint touches the surface.
        self._pending_scrolls: dict = {}
        self._shift_capable: Optional[bool] = None
        #: Doorbell rung on every posted update (a server loop sets it
        #: to put this IM's session on its ready queue).
        self.wake: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Tree root management
    # ------------------------------------------------------------------

    def set_child(self, view: View) -> View:
        """Install the IM's single child view, filling the window.

        Replacing an existing child unlinks the *whole* outgoing
        subtree through :meth:`view_unlinked` first: queued damage is
        discarded, and any grab, focus or timer subscription held by a
        detached view dies with the tree instead of leaking into the new
        one.
        """
        previous = self.child
        if previous is not None and previous is not view:
            self.child = None
            for node in self._iter_subtree(previous):
                self.view_unlinked(node)
            previous._im = None
        self.child = view
        view.parent = None
        view._im = self
        view.set_bounds(self.window.bounds)
        self.set_focus(view)
        self.post_update(view, None)
        return view

    @staticmethod
    def _iter_subtree(view: View) -> List[View]:
        """``view`` and every descendant, parents before children."""
        out: List[View] = []
        stack = [view]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out

    @property
    def bounds(self) -> Rect:
        return self.window.bounds

    # ------------------------------------------------------------------
    # Event translation (the §3 responsibility)
    # ------------------------------------------------------------------

    def process_events(self, limit: Optional[int] = None) -> int:
        """Drain the window's queue, then flush pending updates.

        Returns the number of events handled.  This is the reproduction
        of the main loop: applications inject synthetic input into the
        backend window and call this to let the toolkit react.

        One handler raising never starves the rest of the session: the
        remaining queue still drains and ``flush_updates`` always runs.
        With containment on (``ANDREW_QUARANTINE``, the default) the
        offending view is quarantined and nothing escapes this method;
        with it off, the first exception re-raises *after* the drain
        and flush complete — errors never pass silently, but they no
        longer cost the user their queued keystrokes either.

        A drain that collects *several* errors raises the first with
        the rest chained behind it (``__context__``, plus a note on
        Pythons that support it) and counts the surplus as
        ``im.errors_dropped`` — a multi-failure drain stays fully
        diagnosable from the one traceback.
        """
        handled = 0
        errors: List[BaseException] = []
        try:
            while limit is None or handled < limit:
                event = self.window.next_event()
                if event is None:
                    break
                try:
                    self.handle_event(event)
                except Exception as exc:
                    errors.append(exc)
                handled += 1
        finally:
            self.events_processed += handled
            try:
                self.flush_updates()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise self._chain_errors(errors)
        return handled

    @staticmethod
    def _chain_errors(errors: List[BaseException]) -> BaseException:
        """Fold a drain's error list into one chained exception.

        The first error stays primary; each subsequent one is attached
        to the tail of its ``__context__`` chain (never overwriting a
        context Python already recorded, never creating a cycle), so
        the traceback shows every failure from the drain in order.
        """
        primary = errors[0]
        extra = 0
        seen = {id(primary)}
        tail = primary
        while tail.__context__ is not None and id(tail.__context__) not in seen:
            tail = tail.__context__
            seen.add(id(tail))
        for exc in errors[1:]:
            if id(exc) in seen:
                continue
            extra += 1
            tail.__context__ = exc
            tail = exc
            seen.add(id(exc))
            while (
                tail.__context__ is not None
                and id(tail.__context__) not in seen
            ):
                tail = tail.__context__
                seen.add(id(tail))
        if extra:
            if obs.metrics_on:
                obs.registry.inc("im.errors_dropped", extra)
            if hasattr(primary, "add_note"):  # Python >= 3.11
                primary.add_note(
                    f"[im] {extra} further error(s) from the same event "
                    f"drain are chained via __context__"
                )
        return primary

    def handle_event(self, event: Event) -> None:
        """Translate one backend event into view-tree protocol.

        This is the IM boundary of the fault-containment layer: with
        ``ANDREW_QUARANTINE`` on, an exception the per-view guards
        below did not attribute to a view is still contained here
        (counter ``im.dispatch_contained``) rather than aborting the
        event loop.
        """
        if not (obs.metrics_on or obs.trace_on):
            return self._contained_dispatch(event)
        kind = type(event).__name__
        with obs.span("im.dispatch", event=kind):
            start = time.perf_counter_ns()
            try:
                return self._contained_dispatch(event)
            finally:
                if obs.metrics_on:
                    obs.registry.observe_ns(
                        "im.dispatch_ns", time.perf_counter_ns() - start
                    )
                    obs.registry.inc("im.events")
                    obs.registry.inc(f"im.events.{kind}")

    def _contained_dispatch(self, event: Event) -> None:
        if not faults.enabled:
            return self._dispatch_event(event)
        try:
            return self._dispatch_event(event)
        except Exception:
            if obs.metrics_on:
                obs.registry.inc("im.dispatch_contained")

    def _dispatch_event(self, event: Event) -> None:
        if isinstance(event, MouseEvent):
            self._handle_mouse(event)
        elif isinstance(event, KeyEvent):
            self._handle_key(event)
        elif isinstance(event, MenuEvent):
            self._handle_menu(event)
        elif isinstance(event, UpdateEvent):
            self._repaint(event.area)
        elif isinstance(event, ResizeEvent):
            if self.child is not None:
                self.child.set_bounds(Rect(0, 0, event.width, event.height))
        elif isinstance(event, TimerEvent):
            for view in list(self._timer_subscribers):
                try:
                    view.handle_timer(event)
                except Exception as exc:
                    if not faults.enabled:
                        raise
                    faults.contain_handler(view, exc)

    # -- mouse ------------------------------------------------------------

    def _handle_mouse(self, event: MouseEvent) -> None:
        if self.child is None:
            return
        if self._grab is not None and event.action in (
            MouseAction.DRAG, MouseAction.UP, MouseAction.MOVE
        ):
            # Once a view accepts a DOWN it owns the interaction until UP.
            origin = self._grab.origin_in_window()
            try:
                self._grab.handle_mouse(event.offset(-origin.x, -origin.y))
            except Exception as exc:
                if not faults.enabled:
                    raise
                faults.contain_handler(self._grab, exc)
                self._grab = None  # a broken grab must not eat the session
            if event.action == MouseAction.UP:
                self._grab = None
        else:
            target = self.child.dispatch_mouse(
                event.offset(-self.child.bounds.left, -self.child.bounds.top)
            )
            if event.action == MouseAction.DOWN:
                self._grab = target
        self._update_cursor(event.point)

    def _update_cursor(self, point: Point) -> None:
        """Cursor arbitration (§3): ask the tree, parents first."""
        if self.child is None:
            return
        cursor = self.child.effective_cursor(
            point.offset(-self.child.bounds.left, -self.child.bounds.top)
        )
        if cursor is not None and cursor != self.window.cursor:
            self.window.set_cursor(cursor)

    # -- keyboard -----------------------------------------------------------

    def _handle_key(self, event: KeyEvent) -> None:
        if self._pending_keymap is not None:
            keymap, owner = self._pending_keymap, self._pending_owner
            self._pending_keymap = self._pending_owner = None
            binding = keymap.resolve(event)
            if isinstance(binding, Keymap):
                self._pending_keymap, self._pending_owner = binding, owner
            elif binding is not None:
                try:
                    binding(owner, event)
                except Exception as exc:
                    if not faults.enabled:
                        raise
                    faults.contain_handler(owner, exc)
            return
        for view in self._focus_chain():
            # A broken handler quarantines its view; the keystroke then
            # keeps bubbling so an ancestor may still consume it.
            try:
                if view.handle_key(event):
                    return
                binding = view.keymap.resolve(event)
            except Exception as exc:
                if not faults.enabled:
                    raise
                faults.contain_handler(view, exc)
                continue
            if isinstance(binding, Keymap):
                self._pending_keymap = binding
                self._pending_owner = view
                return

    def _focus_chain(self) -> List[View]:
        """Focus view, then its ancestors, then the IM child."""
        chain: List[View] = []
        node = self.focus if self.focus is not None else self.child
        while node is not None:
            chain.append(node)
            node = node.parent
        if self.child is not None and self.child not in chain:
            chain.append(self.child)
        return chain

    def set_focus(self, view: Optional[View]) -> None:
        """Move the keyboard focus to ``view`` (exception-safely).

        The transition commits in order: the outgoing view's
        ``focus_lost`` runs *before* the reassignment, so a raising
        hook (with quarantine off) propagates with the focus still on
        the view that failed — never a half-applied transfer where the
        new view is installed but its ``focus_gained`` never ran.  If
        ``focus_gained`` itself raises, the assignment rolls back to
        no-focus: the previous view already relinquished cleanly, and
        no view is left believing it holds a keyboard it never
        accepted.  With quarantine on, either hook failing quarantines
        its own view and the transfer completes.
        """
        if view is not None:
            view = view.initial_focus()
        if view is self.focus:
            return
        previous = self.focus
        self._pending_keymap = self._pending_owner = None
        if previous is not None:
            try:
                previous.focus_lost()
            except Exception as exc:
                if not faults.enabled:
                    raise  # focus unchanged: still `previous`
                faults.contain_handler(previous, exc)
        self.focus = view
        if view is not None:
            try:
                view.focus_gained()
            except Exception as exc:
                if not faults.enabled:
                    self.focus = None
                    raise
                faults.contain_handler(view, exc)

    # -- menus ---------------------------------------------------------------

    def menu_set(self) -> MenuSet:
        """Compose the effective menus along the focus chain (§3)."""
        menus = MenuSet()
        for view in self._focus_chain():
            menus.merge_from(view)
        return menus

    def _handle_menu(self, event: MenuEvent) -> None:
        for view in self._focus_chain():
            try:
                if view.handle_menu(event):
                    return
            except Exception as exc:
                if not faults.enabled:
                    raise
                faults.contain_handler(view, exc)

    # -- timers ----------------------------------------------------------------

    def add_timer_subscriber(self, view: View) -> None:
        """Register ``view`` for :meth:`tick` deliveries.

        The view must provide ``handle_timer(event)``; the animation
        view and the console use this.
        """
        if view not in self._timer_subscribers:
            self._timer_subscribers.append(view)

    def remove_timer_subscriber(self, view: View) -> None:
        if view in self._timer_subscribers:
            self._timer_subscribers.remove(view)

    def tick(self, count: int = 1) -> None:
        """Advance simulated time: post ``count`` timer events."""
        for _ in range(count):
            self._tick += 1
            self.window.post_event(TimerEvent(self._tick))

    # ------------------------------------------------------------------
    # Update synchronization (§2's delayed update, §3's up-then-down)
    # ------------------------------------------------------------------

    def post_update(self, view: View, rect: Optional[Rect]) -> None:
        """A view posted an update request up the tree."""
        self.updates.enqueue(view, rect)
        if self.wake is not None:
            self.wake()

    # -- scroll shift-blit (see repro.core.scrollblit) -------------------

    def post_scroll(self, view: View, area: Rect, dy: int) -> bool:
        """Queue a same-surface shift of ``area`` (``view``-local) by
        ``dy`` device rows, posting damage only for the exposed strip.

        Returns False — posting nothing — when the shift cannot be
        proven pixel-identical to repainting ``area``: the move is
        larger than the area, the backend has no ``copy_area``, the
        area is clipped by the window edge, or damage already queued
        intersects the area (its stale pixels must not be moved).
        The caller then posts ordinary area damage instead.
        """
        if area.is_empty() or dy == 0 or abs(dy) >= area.height:
            return False
        if not self._can_shift():
            return False
        origin = view.origin_in_window()
        window_area = area.offset(origin.x, origin.y)
        if not self.window.bounds.contains_rect(window_area):
            return False
        key = id(view)
        record = self._pending_scrolls.get(key)
        if record is not None:
            return self._compose_scroll(record, view, area, dy)
        if self._scroll_blocked(window_area):
            return False
        strip = self._exposed_strip(area, dy)
        self._pending_scrolls[key] = [view, area, dy, strip]
        if obs.metrics_on:
            obs.registry.inc("view.rows_repainted", strip.height)
        self.post_update(view, strip)
        return True

    def _compose_scroll(self, record: list, view: View, area: Rect,
                        dy: int) -> bool:
        """Fold a second scroll of ``view`` into its queued record.

        Two same-direction scrolls compose into one shift of the summed
        distance with one summed exposed strip.  Anything else — a
        direction reversal, a changed area, a summed distance at least
        the area height, or damage that joined the view's queue entry
        since the first scroll (whose stale pixels the bigger shift
        would relocate) — drops the record and reports failure; the
        caller's fallback area damage covers the already-posted strip.
        """
        _, old_area, old_dy, old_strip = record
        total = old_dy + dy
        origin = view.origin_in_window()
        if (
            area != old_area
            or (old_dy > 0) != (dy > 0)
            or abs(total) >= area.height
            or self.updates.pending_rect(view) != old_strip
            or self._scroll_blocked(area.offset(origin.x, origin.y),
                                    exclude=view)
        ):
            del self._pending_scrolls[id(view)]
            return False
        strip = self._exposed_strip(area, total)
        record[2] = total
        record[3] = strip
        if obs.metrics_on:
            obs.registry.inc("view.rows_repainted",
                             strip.height - old_strip.height)
        self.post_update(view, strip)
        return True

    @staticmethod
    def _exposed_strip(area: Rect, dy: int) -> Rect:
        """The rows of ``area`` a shift by ``dy`` leaves unsourced."""
        if dy < 0:  # content moved up: the bottom rows are exposed
            return Rect(area.left, area.bottom + dy, area.width, -dy)
        return Rect(area.left, area.top, area.width, dy)

    def _can_shift(self) -> bool:
        """Does the window's drawable support same-surface copies?"""
        if self._shift_capable is None:
            self._shift_capable = bool(
                getattr(self.window.graphic(), "can_copy_area", False)
            )
        return self._shift_capable

    def _scroll_blocked(self, window_area: Rect,
                        exclude: Optional[View] = None) -> bool:
        """Does queued damage overlap ``window_area`` (window coords)?

        Pixels under queued damage are stale — their repaint is still
        pending — so a shift must not relocate them: the repaint would
        land at the old spot and the staleness would survive at the new
        one.  ``exclude`` skips one view's own entry (used when
        composing scrolls, where that entry is the already-verified
        exposed strip).
        """
        for view, rect in self.updates.pending_damage():
            if view is exclude:
                continue
            origin = view.origin_in_window()
            if rect.offset(origin.x, origin.y).intersects(window_area):
                return True
        return False

    def _run_scrolls(self) -> None:
        """Execute queued shifts against the window surface.

        Runs at the head of every repaint pass, so shifts always move
        *pre-repaint* pixels; the exposed-strip damage queued alongside
        then repaints on the shifted surface.
        """
        if not self._pending_scrolls:
            return
        records = list(self._pending_scrolls.values())
        self._pending_scrolls.clear()
        root = self.window.graphic()
        for view, area, dy, _strip in records:
            if view.interaction_manager() is not self:
                continue
            origin = view.origin_in_window()
            with faultinject.suspended():
                # Toolkit ink: shifts are the IM's own surface surgery.
                root.copy_area(area.offset(origin.x, origin.y), 0, dy)
                if obs.metrics_on:
                    obs.registry.inc("view.scroll_blits")
                    obs.registry.inc(
                        "im.scroll_area_saved",
                        (area.height - abs(dy)) * area.width,
                    )

    def flush_updates(self) -> int:
        """Send queued damage back down as clipped full-update passes.

        Damage rectangles from different views are first mapped into
        window space and overlapping ones merged, so a region dirtied by
        several views repaints once instead of once per view.  Returns
        the number of repaint passes run.
        """
        self._run_scrolls()
        if self.child is None or self.updates.is_empty():
            # Even with no queued damage, flush the window: a direct
            # repaint (e.g. an UpdateEvent dispatched straight from the
            # queue) may have logged remote ops without going through
            # the damage path.
            self.window.flush()
            return 0
        with obs.span("im.flush"):
            damages: List[Rect] = []
            for view, rect in self.updates.drain():
                origin = view.origin_in_window()
                damage = rect.offset(origin.x, origin.y).intersection(
                    self.window.bounds
                )
                if not damage.is_empty():
                    damages.append(damage)
            merged = self._merge_damage(damages)
            if obs.metrics_on:
                obs.registry.inc("im.flush_passes", len(merged))
                obs.registry.inc("im.flush_merged", len(damages) - len(merged))
            for damage in merged:
                try:
                    self._repaint(damage)
                except Exception:
                    # Backstop: per-view containment already caught
                    # anything attributable; what reaches here is IM or
                    # device trouble, and the other damage rects (and
                    # the flush below) must still happen.
                    if not faults.enabled:
                        raise
                    if obs.metrics_on:
                        obs.registry.inc("im.flush_contained")
            self.window.flush()
            return len(merged)

    @staticmethod
    def _merge_damage(damages: List[Rect]) -> List[Rect]:
        """Union overlapping window-space rects until none intersect.

        Each absorbed entry is swap-removed (O(1), no list shifting) and
        the scan restarts only after a union actually grew the rect —
        the grown bounding box may newly overlap entries that were
        already cleared against the smaller one.
        """
        merged: List[Rect] = []
        for rect in damages:
            index = 0
            while index < len(merged):
                if rect.intersects(merged[index]):
                    rect = rect.union(merged[index])
                    merged[index] = merged[-1]
                    merged.pop()
                    index = 0
                else:
                    index += 1
            merged.append(rect)
        return merged

    def _repaint(self, damage: Rect) -> None:
        """The downward update pass, clipped to ``damage``."""
        if self.child is None:
            return
        # Shifts queued before this repaint must move *pre-repaint*
        # pixels — a direct UpdateEvent repaint racing a queued scroll
        # would otherwise paint fresh content and then shift it.
        self._run_scrolls()
        root = self.window.graphic()
        base_clip = root.clip
        clipped = base_clip.intersection(damage)
        if clipped.is_empty():
            return
        root.clip = clipped
        if obs.metrics_on:
            obs.registry.inc("im.repaints")
            obs.registry.inc("im.repaint_area", damage.area)
        try:
            with obs.span("im.repaint", area=damage.area):
                with faultinject.suspended():
                    # IM's own prefill is toolkit ink, not component ink:
                    # injected device faults here would be unattributable.
                    root.fill_rect(damage, 0)  # background under the damage
                self.child.full_update(root.child(self.child.bounds))
        finally:
            # Restore the root drawable's clip: one merged-damage pass
            # must never leak its shrunken clip into the next (even on
            # a backend that hands out a shared root graphic).
            root.clip = base_clip

    def redraw(self) -> None:
        """Unconditional full repaint of the window."""
        if obs.metrics_on:
            obs.registry.inc("im.redraws")
        self.updates.drain()
        self._repaint(self.window.bounds)
        self.window.flush()

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def view_unlinked(self, view: View) -> None:
        """A view left the tree: forget grabs/focus/damage it owned."""
        self.updates.discard(view)
        self._pending_scrolls.pop(id(view), None)
        if self._grab is view:
            self._grab = None
        if self.focus is view:
            self.set_focus(self.child)
        if view in self._timer_subscribers:
            self._timer_subscribers.remove(view)

    def snapshot_lines(self) -> List[str]:
        return self.window.snapshot_lines()

    def close(self) -> None:
        self.window.close()

    def __repr__(self) -> str:
        return f"<InteractionManager {self.window!r}>"
