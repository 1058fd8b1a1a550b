"""The animation view: plays frames against the IM timer.

"In order to run the animation, click into the cell and choose the
animate item from the menus" (Figure 5's caption).  This view
reproduces that interaction: an ``Animate`` menu item starts playback,
timer events advance frames every ``period`` ticks, and ``Stop`` (or
reaching the last frame in one-shot mode) halts it.

Frames are pre-composed into an off-screen window before display —
the OffScreenWindow porting class earning its keep.  The view keeps
one such window and allocates a new one only when the frame size (or
the window system) changes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...core.view import View
from ...graphics.graphic import Graphic
from ...wm.events import MouseAction, MouseEvent, TimerEvent
from .animdata import AnimationData

__all__ = ["AnimationView"]


class AnimationView(View):
    """Displays one frame; animates when asked."""

    atk_name = "animationview"

    def __init__(self, dataobject: Optional[AnimationData] = None,
                 loop: bool = True) -> None:
        super().__init__(dataobject)
        self.current = 0
        self.playing = False
        self.loop = loop
        self._ticks = 0
        self._offscreen = None
        self._offscreen_ws = None
        self._build_menus()

    @property
    def data(self) -> Optional[AnimationData]:
        return self.dataobject

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        if self.data is None or not self.data.frames:
            return (min(width, 10), min(height, 3))
        w, h = self.data.max_size()
        return (min(width, w), min(height, h))

    # -- playback ------------------------------------------------------------

    def start(self) -> None:
        """Begin playback (subscribes to the IM timer)."""
        if self.data is None or not self.data.frames:
            return
        im = self.interaction_manager()
        if im is not None:
            im.add_timer_subscriber(self)
        self.playing = True
        self._ticks = 0
        self.want_update()

    def stop(self) -> None:
        im = self.interaction_manager()
        if im is not None:
            im.remove_timer_subscriber(self)
        self.playing = False
        self.want_update()

    def show_frame(self, index: int) -> None:
        if self.data is not None and self.data.frames:
            self.current = index % self.data.frame_count
            self.want_update()

    def handle_timer(self, event: TimerEvent) -> None:
        """IM timer callback: advance when the period elapses."""
        if not self.playing or self.data is None or not self.data.frames:
            return
        self._ticks += 1
        if self._ticks % self.data.period:
            return
        at_end = self.current >= self.data.frame_count - 1
        if at_end and not self.loop:
            self.stop()
            return
        self.show_frame(self.current + 1)

    # -- display ----------------------------------------------------------------

    def draw(self, graphic: Graphic) -> None:
        if self.data is None or not self.data.frames:
            graphic.draw_string(0, 0, "(empty animation)")
            return
        frame = self.data.frame(self.current)
        im = self.interaction_manager()
        if im is not None:
            # Compose off screen, then copy — flicker-free on a real
            # display, and it exercises the OffScreenWindow port class.
            off = self._compose_surface(im.window_system, frame.width,
                                        frame.height)
            canvas = off.graphic()
            canvas.clear()  # a reused surface still holds the last frame
            canvas.draw_bitmap(frame, 0, 0)
            off.copy_to(graphic, 0, 0)
        else:
            graphic.draw_bitmap(frame, 0, 0)

    def _compose_surface(self, window_system, width: int, height: int):
        """The view's offscreen window, rebuilt only when it no longer
        fits: another size, or another window system."""
        off = self._offscreen
        if (off is None or self._offscreen_ws is not window_system
                or (off.width, off.height) != (width, height)):
            off = window_system.create_offscreen(width, height)
            self._offscreen, self._offscreen_ws = off, window_system
        return off

    # -- interaction ---------------------------------------------------------------

    def handle_mouse(self, event: MouseEvent) -> bool:
        if event.action == MouseAction.DOWN:
            self.want_input_focus()
            return True
        return event.action in (MouseAction.DRAG, MouseAction.UP)

    def _build_menus(self) -> None:
        card = self.menu_card("Animation")
        card.add("Animate", lambda v, e: self.start())
        card.add("Stop", lambda v, e: self.stop())
        card.add("Rewind", lambda v, e: self.show_frame(0))
