"""Views and the view tree (paper sections 2 and 3).

A view "contains the information about how the data is to be displayed
and how the user is to manipulate the data object".  Views form a tree:
each view is a rectangle completely contained in its parent, with the
interaction manager at the root.  Two protocols define the toolkit:

**Events travel down.**  ``dispatch_mouse`` asks the view to *route*
each mouse event: the view may claim it, or name a child to pass it to
(re-expressed in the child's coordinates).  Crucially the decision is
the parent's — a view may claim an event that lies over a child (the
frame's divider grab zone) or pass one that lies over itself.  This is
the paper's *parental authority*, its departure from geometry-driven
toolkits.  The same parent/child negotiation arbitrates menus
(:meth:`menu_cards`), cursors (:meth:`cursor_for`), keyboard symbols
(:attr:`keymap` with bubbling) and input focus.

**Updates travel up, then come back down.**  A view never paints
synchronously; it calls :meth:`want_update`, the request lands in the
interaction manager's queue, and repaint arrives later as a top-down
:meth:`full_update` pass whose drawable is clipped to the damage — so
parents composite themselves and their children in the right order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import obs
from ..class_system.observable import ChangeRecord, Observer
from ..class_system.registry import ATKObject
from ..graphics.geometry import Point, Rect
from ..graphics.graphic import Graphic
from ..testing import faultinject
from ..wm.base import Cursor
from ..wm.events import KeyEvent, MenuEvent, MouseEvent
from . import faults
from .dataobject import DataObject
from .keymap import Keymap
from .menus import MenuCard

__all__ = ["View"]


class View(ATKObject, Observer):
    """Base class for everything visible.

    A view may sit on a :class:`DataObject` (it attaches as an observer)
    or stand alone — "the scroll bar is one such example.  It only
    adjusts the information contained in another view."
    """

    atk_register = False

    def __init__(self, dataobject: Optional[DataObject] = None) -> None:
        ATKObject.__init__(self)
        self.parent: Optional["View"] = None
        self.children: List["View"] = []
        self.bounds = Rect(0, 0, 0, 0)      # in parent coordinates
        self.dataobject: Optional[DataObject] = None
        self.keymap = Keymap(type(self).__name__)
        self.cursor: Optional[Cursor] = None
        self._menu_cards: List[MenuCard] = []
        self._im = None                     # set on the root child by the IM
        self._needs_layout = True
        self.draw_count = 0                 # repaints (benches read this)
        #: Containment record (None = healthy); see repro.core.faults.
        self._quarantine: Optional[faults.Quarantine] = None
        if dataobject is not None:
            self.set_dataobject(dataobject)

    # ------------------------------------------------------------------
    # Data object linkage
    # ------------------------------------------------------------------

    def set_dataobject(self, dataobject: Optional[DataObject]) -> None:
        """Point this view at ``dataobject``, managing observation."""
        if self.dataobject is not None:
            self.dataobject.remove_observer(self)
        self.dataobject = dataobject
        if dataobject is not None:
            dataobject.add_observer(self)

    def observed_changed(self, change: ChangeRecord) -> None:
        """Observer callback: the data object announced a change.

        The default asks for a full repaint; views with incremental
        repair (text, table) override and consult the change record.
        With containment on, a view whose repair code raises is
        quarantined here — the *right* view gets the placeholder, and
        the notifying data object's other observers are unaffected.
        """
        if not faults.enabled:
            self.on_data_changed(change)
            return
        try:
            self.on_data_changed(change)
        except Exception as exc:
            faults.contain_handler(self, exc)

    def on_data_changed(self, change: ChangeRecord) -> None:
        self.want_update()

    def observed_destroyed(self, source) -> None:
        if source is self.dataobject:
            self.dataobject = None
            self.want_update()

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------

    def add_child(self, child: "View", bounds: Optional[Rect] = None) -> "View":
        """Attach ``child``; ``bounds`` are in this view's coordinates."""
        if child.parent is not None:
            child.parent.remove_child(child)
        child.parent = self
        self.children.append(child)
        if bounds is not None:
            child.set_bounds(bounds)
        return child

    def remove_child(self, child: "View") -> None:
        if child in self.children:
            self.children.remove(child)
            child.parent = None
            im = self.interaction_manager()
            if im is not None:
                im.view_unlinked(child)

    def set_bounds(self, bounds: Rect) -> None:
        """Assign this view's rectangle (parent coordinates).

        Size changes schedule a re-layout of the children; position-only
        moves do not.
        """
        size_changed = (
            bounds.width != self.bounds.width
            or bounds.height != self.bounds.height
        )
        self.bounds = bounds
        if size_changed:
            self._needs_layout = True
            self.want_update()

    def layout(self) -> None:
        """Position children inside ``(0, 0, width, height)``.

        Called lazily before drawing or routing whenever the size
        changed.  Default: nothing (leaf views).
        """

    def ensure_layout(self) -> None:
        if self._needs_layout:
            self.layout()
            self._needs_layout = False

    @property
    def width(self) -> int:
        return self.bounds.width

    @property
    def height(self) -> int:
        return self.bounds.height

    @property
    def local_bounds(self) -> Rect:
        return Rect(0, 0, self.bounds.width, self.bounds.height)

    def ancestors(self) -> List["View"]:
        out = []
        node = self.parent
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    def root(self) -> "View":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def interaction_manager(self):
        """The interaction manager above this view, or None if unlinked."""
        return self.root()._im

    def origin_in_window(self) -> Point:
        """This view's top-left corner in window coordinates."""
        x, y = self.bounds.left, self.bounds.top
        node = self.parent
        while node is not None:
            x += node.bounds.left
            y += node.bounds.top
            node = node.parent
        return Point(x, y)

    def rect_in_window(self) -> Rect:
        origin = self.origin_in_window()
        return Rect(origin.x, origin.y, self.bounds.width, self.bounds.height)

    def check_containment(self) -> None:
        """Assert the §3 invariant: children fit inside the parent.

        "Child views are always visually contained within the screen
        space allocated to their parent."  Exercised by property tests.
        """
        for child in self.children:
            assert self.local_bounds.contains_rect(child.bounds), (
                f"{child!r} bounds {child.bounds} escape parent "
                f"{self!r} bounds {self.local_bounds}"
            )
            child.check_containment()

    # ------------------------------------------------------------------
    # Update protocol (up, then back down)
    # ------------------------------------------------------------------

    def want_update(self, rect: Optional[Rect] = None) -> None:
        """Request a repaint of ``rect`` (local coords; None = all).

        The request is posted *up* to the interaction manager; if the
        view is not yet in a window the request is simply dropped (there
        is nothing to repair and attachment triggers a full update).
        """
        im = self.interaction_manager()
        if im is not None:
            im.post_update(self, rect)

    def want_scroll(self, area: Rect, dy: int) -> bool:
        """Announce that the content of ``area`` (local coords) moved by
        ``dy`` device rows, and try to satisfy the scroll with a surface
        shift plus one exposed-strip repaint.

        Returns True when the shift was made (the exposed strip's
        damage is posted here; the caller must post *nothing else*).
        Returns False — having posted nothing at all — whenever the
        shift cannot be proven pixel-identical to a full repaint; the
        caller then falls back to ordinary area damage.
        """
        im = self.interaction_manager()
        if im is None:
            return False
        return im.post_scroll(self, area.intersection(self.local_bounds), dy)

    def set_backing_store(self, on: bool = True) -> None:
        """Accepted and ignored: views keep no cached image.

        Every repaint renders the subtree live; components that want to
        pre-compose an image draw into an offscreen window themselves
        (see :class:`~repro.wm.base.OffscreenWindow`).  Kept so callers
        written against the old per-view cache still run.
        """

    def full_update(self, graphic: Graphic) -> None:
        """Draw self and children into ``graphic`` (the top-down pass).

        With containment on (``ANDREW_QUARANTINE``, the default), any
        exception escaping the subtree's render is caught *here*: the
        subtree is quarantined, its pending damage is discarded, and a
        bordered placeholder naming the error paints in its place —
        siblings and ancestors keep painting.  Quarantined subtrees
        retry on later passes with capped backoff and recover the
        moment a render succeeds.
        """
        if not faults.enabled:
            self._render_subtree(graphic)
            return
        quarantined = self._quarantine
        if quarantined is not None and not quarantined.should_retry():
            quarantined.note_skipped_pass()
            self._draw_quarantined(graphic)
            return
        try:
            self._render_subtree(graphic)
        except Exception as exc:
            im = self.interaction_manager()
            if im is not None:
                # Damage this subtree asked for cannot be repaired by
                # its own draw code right now; the placeholder below
                # covers the same cells.
                im.updates.discard(self)
            self.quarantine_failure(exc)
            self._draw_quarantined(graphic)
        else:
            if quarantined is not None:
                self._quarantine = None
                if obs.metrics_on:
                    obs.registry.inc("view.recovered")

    # -- quarantine (see repro.core.faults) ------------------------------

    def quarantine_failure(self, exc: BaseException) -> None:
        """Record one containment event against this view."""
        quarantined = self._quarantine
        if quarantined is None:
            self._quarantine = quarantined = faults.Quarantine()
            if obs.metrics_on:
                obs.registry.inc("view.quarantined")
        else:
            if obs.metrics_on:
                obs.registry.inc("view.quarantine_hits")
        quarantined.record_failure(exc)

    @property
    def quarantined(self) -> Optional["faults.Quarantine"]:
        """The active quarantine record, or None when healthy."""
        return self._quarantine

    def reset_quarantine(self) -> None:
        """Lift a (possibly sticky) quarantine: the next pass retries live.

        The record itself stays until a render actually succeeds — the
        view proves its own recovery, and ``view.recovered`` keeps
        balancing ``view.quarantined`` in telemetry.  The backoff ladder
        restarts from scratch if the retry fails again.
        """
        quarantined = self._quarantine
        if quarantined is not None:
            quarantined.sticky = False
            quarantined.cooldown = 0
            quarantined.failures = 0
            self.want_update()

    def _draw_quarantined(self, graphic: Graphic) -> None:
        """Paint the placeholder box: border plus the error's name.

        The visual analogue of ATK's unknown-object behaviour — the
        document keeps working around a component it cannot render.
        Drawn with injection suspended (it is toolkit ink, not
        component ink) and double-contained: placeholder drawing must
        never raise.
        """
        with faultinject.suspended():
            try:
                area = self.local_bounds
                graphic.fill_rect(area, 0)
                graphic.draw_rect(area)
                label = self._quarantine.error if self._quarantine else ""
                graphic.draw_string_centered(
                    area, f"[{type(self).__name__}! {label}]"
                )
            except Exception:  # pragma: no cover - last-resort guard
                pass

    def _render_subtree(self, graphic: Graphic) -> None:
        """The unconditional render pass.

        Order per the paper: the parent paints, then each child in its
        sub-drawable, then :meth:`draw_over` so parents may overlay
        their children.
        """
        if faultinject.enabled:
            faultinject.maybe_raise("view.draw")
        self.ensure_layout()
        self.draw_count += 1
        self.draw(graphic)
        for child in self.children:
            if child.bounds.is_empty():
                continue
            sub = graphic.child(child.bounds)
            if sub.clip.is_empty():
                # Damage culling: the child lies entirely outside the
                # clipped damage region, so its whole subtree is skipped.
                if obs.metrics_on:
                    obs.registry.inc("view.children_culled")
                continue
            child.full_update(sub)
        self.draw_over(graphic)

    def draw(self, graphic: Graphic) -> None:
        """Paint this view's own image.  Override point."""

    def draw_over(self, graphic: Graphic) -> None:
        """Paint after the children (overlays).  Override point."""

    def print_to(self, graphic: Graphic) -> None:
        """Print by drawable swap (§4): redraw into a printer drawable.

        The view keeps no reference to its screen drawable, so printing
        really is just a redraw with a different medium.
        """
        self.full_update(graphic)

    # ------------------------------------------------------------------
    # Mouse events (down the tree, parental authority)
    # ------------------------------------------------------------------

    def child_at(self, point: Point) -> Optional["View"]:
        """Topmost child whose rectangle contains ``point``."""
        for child in reversed(self.children):
            if child.bounds.contains_point(point):
                return child
        return None

    def route_mouse(self, event: MouseEvent) -> Optional["View"]:
        """Decide the disposition of a mouse event (override point).

        Return a child to pass the event down to, or ``None`` to keep
        it here.  The default is geometric — deepest child under the
        point — but subclasses are free to claim events over their
        children (the frame) or interrogate semantics first (the
        drawing view); that freedom is the architecture.
        """
        return self.child_at(event.point)

    def dispatch_mouse(self, event: MouseEvent) -> Optional["View"]:
        """Walk the event down until some view accepts it.

        Returns the accepting view (so the interaction manager can set
        the mouse grab for the rest of the drag), or None.

        With containment on, an exception in *this* view's routing or
        handler quarantines this view and declines the event (a deeper
        view's failure was already contained by its own dispatch).
        """
        try:
            self.ensure_layout()
            child = self.route_mouse(event)
            if child is not None and child is not self:
                handled = child.dispatch_mouse(
                    event.offset(-child.bounds.left, -child.bounds.top)
                )
                if handled is not None:
                    return handled
                # The child declined: the parent gets a second chance.
            return self if self.handle_mouse(event) else None
        except Exception as exc:
            if not faults.enabled:
                raise
            faults.contain_handler(self, exc)
            return None

    def handle_mouse(self, event: MouseEvent) -> bool:
        """Consume a mouse event aimed at this view.  Override point."""
        return False

    # ------------------------------------------------------------------
    # Keyboard (focus + bubbling)
    # ------------------------------------------------------------------

    def handle_key(self, event: KeyEvent) -> bool:
        """Consume one keystroke.  Default: consult the keymap.

        Chord prefixes are resolved by the interaction manager; this
        method only sees whole lookups.
        """
        binding = self.keymap.resolve(event)
        if binding is None or isinstance(binding, Keymap):
            return False
        binding(self, event)
        return True

    def want_input_focus(self) -> bool:
        """Ask to become the keyboard focus (§3 focus negotiation).

        Every ancestor may veto via :meth:`allow_child_focus`.  Returns
        True if focus was granted.
        """
        for ancestor in self.ancestors():
            if not ancestor.allow_child_focus(self):
                return False
        im = self.interaction_manager()
        if im is None:
            return False
        im.set_focus(self)
        return True

    def allow_child_focus(self, child: "View") -> bool:
        """Parental veto point for focus requests from below."""
        return True

    def initial_focus(self) -> "View":
        """The view that should own the keyboard when this subtree does.

        Containers (frame, scroll bar) delegate to their body so that
        installing a wrapped editor gives the editor the keyboard, the
        way the original applications came up ready to type into.
        """
        return self

    def focus_gained(self) -> None:
        """Notification hook: this view is now the keyboard focus."""

    def focus_lost(self) -> None:
        """Notification hook: this view lost the keyboard focus."""

    # ------------------------------------------------------------------
    # Menus
    # ------------------------------------------------------------------

    def menu_card(self, name: str) -> MenuCard:
        """This view's card named ``name``, created on first use."""
        for card in self._menu_cards:
            if card.name == name:
                return card
        card = MenuCard(name)
        self._menu_cards.append(card)
        return card

    def menu_cards(self) -> List[MenuCard]:
        """Cards this view contributes to the effective menu set."""
        return list(self._menu_cards)

    def handle_menu(self, event: MenuEvent) -> bool:
        """Consume a menu choice addressed to this view's own cards."""
        for card in self._menu_cards:
            if card.name == event.card:
                item = card.get(event.item)
                if item is not None:
                    item.handler(self, event)
                    return True
        return False

    # ------------------------------------------------------------------
    # Cursor arbitration
    # ------------------------------------------------------------------

    def cursor_for(self, point: Point) -> Optional[Cursor]:
        """The cursor this view wants at ``point``, before asking a child.

        Returning non-None overrides the subtree — how the frame shows
        its divider cursor over the children's space.
        """
        return None

    def effective_cursor(self, point: Point) -> Optional[Cursor]:
        """Resolve the cursor at ``point`` with parental authority."""
        self.ensure_layout()
        own = self.cursor_for(point)
        if own is not None:
            return own
        child = self.child_at(point)
        if child is not None:
            found = child.effective_cursor(
                point.offset(-child.bounds.left, -child.bounds.top)
            )
            if found is not None:
                return found
        return self.cursor

    # ------------------------------------------------------------------
    # Size negotiation (embedding)
    # ------------------------------------------------------------------

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        """How much of an offered ``width`` x ``height`` this view wants.

        Host views (text, table) call this to size embedded children —
        the paper's "how to determine the size and placement of embedded
        components".  The default accepts the whole offer.
        """
        return (width, height)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def destroy(self) -> None:
        if not self.destroyed:
            self.set_dataobject(None)
            im = self.interaction_manager()
            if im is not None:
                im.view_unlinked(self)
            for child in list(self.children):
                child.destroy()
            if self.parent is not None:
                self.parent.remove_child(self)
        super().destroy()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.bounds.width}x{self.bounds.height}"
            f"+{self.bounds.left}+{self.bounds.top}>"
        )
