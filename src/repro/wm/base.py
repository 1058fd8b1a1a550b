"""The window-system porting interface (paper section 8).

"To port the toolkit to another window system, six classes must be
written, encompassing approximately 70 routines":

=====================  ===============================================
Paper class            Here
=====================  ===============================================
Window System          :class:`WindowSystem`
Interaction Manager    :class:`BackendWindow` (the window-system half;
                       the view-tree half lives in ``repro.core.im``)
Cursor                 :class:`Cursor`
Graphic                a :class:`~repro.graphics.graphic.Graphic`
                       subclass per backend
FontDesc               the backend's ``font_metrics`` realization
Off Screen Window      :class:`OffscreenWindow`
=====================  ===============================================

Backends register themselves by name with :func:`register_window_system`
and are selected at run time by the ``ANDREW_WM`` environment variable
(see :mod:`repro.wm.switch`), reproducing the paper's env-var-selected,
dynamically loaded backend modules.  :func:`porting_surface` reports the
routine inventory a backend actually implements, which experiment E6
prints next to the paper's "six classes / ~70 routines" claim.
"""

from __future__ import annotations

import collections
import inspect
from typing import Callable, Deque, Dict, List, Optional, Type

from .. import obs
from ..class_system.registry import ATKObject
from ..graphics.fontdesc import FontDesc, FontMetrics
from ..graphics.geometry import Point, Rect
from ..graphics.graphic import Graphic
from .events import (
    Event,
    KeyEvent,
    MenuEvent,
    MouseAction,
    MouseButton,
    MouseEvent,
    ResizeEvent,
    UpdateEvent,
)

__all__ = [
    "Cursor",
    "CursorShape",
    "OffscreenWindow",
    "BackendWindow",
    "WindowSystem",
    "porting_surface",
    "PORTING_CLASSES",
]

PORTING_CLASSES = (
    "WindowSystem",
    "InteractionManager",
    "Cursor",
    "Graphic",
    "FontDesc",
    "OffScreenWindow",
)

#: Cursor shapes after the original cursor font.
CursorShape = str
ARROW: CursorShape = "arrow"
IBEAM: CursorShape = "ibeam"
CROSSHAIR: CursorShape = "crosshair"
WAIT: CursorShape = "wait"
HORIZONTAL_BARS: CursorShape = "horizontal-bars"  # the frame's divider cursor


class Cursor:
    """A mouse-cursor definition (the Cursor porting class).

    The toolkit side only names a shape; the backend realizes it.  The
    view tree's cursor arbitration (§3) decides *which* view's cursor is
    showing; this class is just the definition being shown.
    """

    __slots__ = ("shape",)

    def __init__(self, shape: CursorShape = ARROW) -> None:
        self.shape = shape

    def __eq__(self, other) -> bool:
        return isinstance(other, Cursor) and self.shape == other.shape

    def __hash__(self) -> int:
        return hash(("cursor", self.shape))

    def __repr__(self) -> str:
        return f"Cursor({self.shape!r})"


class OffscreenWindow:
    """An off-screen drawing surface (the OffScreenWindow porting class).

    Provides a :class:`Graphic` onto a hidden surface plus
    :meth:`copy_to`, which transfers the pixels into another graphic —
    how components pre-compose images (the animation component uses it
    for flicker-free frames).  ``copy_to`` has *copy* semantics —
    the surface's pixels replace the target's, background included —
    and must never write outside the target's clip.
    """

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height

    def graphic(self) -> Graphic:
        raise NotImplementedError

    def copy_to(self, target: Graphic, x: int, y: int) -> None:
        """Blit this surface's contents into ``target`` at (x, y)."""
        raise NotImplementedError

    def resize(self, width: int, height: int) -> None:
        """Reallocate the hidden surface (contents are discarded)."""
        if (width, height) == (self.width, self.height):
            return
        self.width = width
        self.height = height
        self._resize_surface(width, height)

    def _resize_surface(self, width: int, height: int) -> None:
        raise NotImplementedError

    def surface_bytes(self) -> int:
        """Approximate footprint of the hidden surface, in bytes."""
        return self.width * self.height

    @staticmethod
    def count_blit() -> None:
        """Tally one surface-to-drawable transfer (``wm.blits``)."""
        if obs.metrics_on:
            obs.registry.inc("wm.blits")


class BackendWindow:
    """One top-level window (the window-system half of the IM).

    Owns the event queue.  Applications/tests *inject* synthetic input
    with the ``inject_*`` methods — the reproduction's substitute for a
    human at a 1988 workstation — and the toolkit's interaction manager
    drains the queue with :meth:`next_event`.
    """

    def __init__(self, title: str, width: int, height: int) -> None:
        self.title = title
        self.width = width
        self.height = height
        self.mapped = True
        self.cursor = Cursor(ARROW)
        self._queue: Deque[Event] = collections.deque()
        self._button_down: Optional[MouseButton] = None
        self._window_system: Optional["WindowSystem"] = None
        #: Doorbell rung on every posted event (a server loop sets it
        #: to put the window's session on its ready queue).
        self.wake: Optional[Callable[[], None]] = None

    # -- porting points ---------------------------------------------------

    def graphic(self) -> Graphic:
        """The root drawable covering the whole window."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output to the 'display'.

        Local backends draw immediately, so there is nothing to push;
        the remote backend replays and ships its recorded frame here.
        Anything that *observes* the surface (``snapshot_lines``,
        ``pending_events``) calls this first, so no backend can show a
        half-settled display.
        """

    def set_cursor(self, cursor: Cursor) -> None:
        self.cursor = cursor

    def set_title(self, title: str) -> None:
        self.title = title

    def resize(self, width: int, height: int) -> None:
        """Resize the window surface and queue the resize + full expose."""
        self.width = width
        self.height = height
        self._resize_surface(width, height)
        self.post_event(ResizeEvent(width, height))
        self.post_event(UpdateEvent(self.bounds, full=True))

    def _resize_surface(self, width: int, height: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.mapped = False

    # -- shared machinery ---------------------------------------------------

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def post_event(self, event: Event) -> None:
        self._queue.append(event)
        if self.wake is not None:
            self.wake()

    def next_event(self) -> Optional[Event]:
        """Pop the oldest queued event, or None if the queue is empty."""
        return self._queue.popleft() if self._queue else None

    def pending_events(self) -> int:
        # An observation point: callers poll this between frames, so
        # settle the display before they act on what they see.
        self.flush()
        return len(self._queue)

    def queued_events(self) -> int:
        """Queue depth *without* flushing — the scheduler's readiness
        probe.  A server loop polling thousands of idle remote windows
        must not force a frame out of each; anything that acts on the
        display itself still goes through ``pending_events``."""
        return len(self._queue)

    # -- synthetic input ------------------------------------------------------

    def inject_mouse(
        self,
        action: MouseAction,
        x: int,
        y: int,
        button: MouseButton = MouseButton.LEFT,
        clicks: int = 1,
    ) -> None:
        if action == MouseAction.DOWN:
            self._button_down = button
        elif action == MouseAction.UP:
            self._button_down = None
        self.post_event(MouseEvent(action, Point(x, y), button, clicks))

    def inject_click(self, x: int, y: int, button: MouseButton = MouseButton.LEFT):
        """A down+up pair at the same spot — one user click."""
        self.inject_mouse(MouseAction.DOWN, x, y, button)
        self.inject_mouse(MouseAction.UP, x, y, button)

    def inject_drag(self, x0: int, y0: int, x1: int, y1: int,
                    button: MouseButton = MouseButton.LEFT) -> None:
        """Press at (x0, y0), drag to (x1, y1), release."""
        self.inject_mouse(MouseAction.DOWN, x0, y0, button)
        self.inject_mouse(MouseAction.DRAG, x1, y1, button)
        self.inject_mouse(MouseAction.UP, x1, y1, button)

    def inject_key(self, char: str, ctrl: bool = False, meta: bool = False) -> None:
        self.post_event(KeyEvent(char, ctrl=ctrl, meta=meta))

    def inject_keys(self, text: str) -> None:
        """Type each character of ``text`` as a separate keystroke."""
        for char in text:
            self.inject_key("Return" if char == "\n" else char)

    def inject_menu(self, card: str, item: str) -> None:
        self.post_event(MenuEvent(card, item))

    def inject_expose(self, area: Optional[Rect] = None) -> None:
        area = self.bounds if area is None else area
        self.post_event(UpdateEvent(area, full=(area == self.bounds)))

    # -- inspection -------------------------------------------------------------

    def snapshot_lines(self) -> List[str]:
        """A human-readable rendering of the window contents.

        Ascii backend: the literal cell grid.  Raster backend: a coarse
        downsampling.  Used by examples and snapshot benches.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.title!r} "
            f"{self.width}x{self.height}>"
        )


class WindowSystem(ATKObject):
    """Abstract window system (the WindowSystem porting class).

    "This class exists to allow the toolkit to get a handle on the other
    window system classes" — it is the factory for windows, offscreen
    surfaces, cursors and font metrics.
    """

    atk_register = False

    #: Backend name used by the ``ANDREW_WM`` switch.
    name = "abstract"

    def __init__(self) -> None:
        super().__init__()
        self.windows: List[BackendWindow] = []
        # FontDesc is immutable/hashable and FontMetrics carries no
        # mutable state, so realized metrics are memoized per desc —
        # text layout asks for metrics once per style run, per line.
        self._metrics_cache: Dict[FontDesc, FontMetrics] = {}

    def create_window(self, title: str, width: int, height: int) -> BackendWindow:
        window = self._make_window(title, width, height)
        window._window_system = self
        self.windows.append(window)
        if obs.metrics_on:
            obs.registry.inc("wm.windows_created")
            obs.registry.inc(f"wm.windows_created.{self.name}")
        return window

    def _make_window(self, title: str, width: int, height: int) -> BackendWindow:
        raise NotImplementedError

    def create_offscreen(self, width: int, height: int) -> OffscreenWindow:
        raise NotImplementedError

    def create_cursor(self, shape: CursorShape) -> Cursor:
        return Cursor(shape)

    def font_metrics(self, desc: FontDesc) -> FontMetrics:
        """Realized metrics for ``desc``, memoized per window system.

        Backends implement :meth:`_font_metrics`; every caller goes
        through this cache (hit/miss counters: ``font.metrics_hits`` /
        ``font.metrics_misses``).
        """
        cached = self._metrics_cache.get(desc)
        if cached is not None:
            if obs.metrics_on:
                obs.registry.inc("font.metrics_hits")
            return cached
        metrics = self._font_metrics(desc)
        self._metrics_cache[desc] = metrics
        if obs.metrics_on:
            obs.registry.inc("font.metrics_misses")
        return metrics

    def _font_metrics(self, desc: FontDesc) -> FontMetrics:
        """Backend hook: realize metrics for one font description."""
        raise NotImplementedError

    def stats(self) -> Dict[str, int]:
        """Backend-specific counters (e.g. raster protocol requests)."""
        return {}


def _overridden_methods(cls: type, base: type) -> List[str]:
    """Names of public methods ``cls`` (re)defines relative to ``base``."""
    names = []
    for klass in cls.__mro__:
        if klass in (base, object) or not issubclass(klass, base):
            continue
        for name, member in vars(klass).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) and name not in names:
                names.append(name)
    return sorted(names)


def porting_surface(
    window_system_cls: Type[WindowSystem],
    window_cls: Type[BackendWindow],
    graphic_cls: Type[Graphic],
    offscreen_cls: Type[OffscreenWindow],
) -> Dict[str, List[str]]:
    """Inventory the routines a backend implements, per porting class.

    This is the measured counterpart of the paper's "six classes,
    approximately 70 routines" port cost: the Graphic entry also counts
    the ~50 "simple transformations to the graphics layer" the shared
    base class provides once the device primitives exist.
    """
    graphic_ops = _overridden_methods(graphic_cls, object)
    return {
        "WindowSystem": _overridden_methods(window_system_cls, ATKObject),
        "InteractionManager": _overridden_methods(window_cls, object),
        "Cursor": _overridden_methods(Cursor, object) or ["shape"],
        "Graphic": graphic_ops,
        "FontDesc": ["font_metrics", "string_width", "chars_that_fit", "height"],
        "OffScreenWindow": _overridden_methods(offscreen_cls, object),
    }
