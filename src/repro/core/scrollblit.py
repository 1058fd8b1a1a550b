"""The scroll shift-blit.

A scrollable view that moves its viewport origin *shifts* the
still-valid region of the window surface in place (a same-surface
``copy_area`` on the backend) and posts damage only for the newly
exposed strip, instead of repainting the whole pane.

The shift is a pure optimisation: :meth:`repro.core.view.View.
want_scroll` returns ``False`` (and posts nothing) whenever the shift
cannot be proven pixel-identical to a full repaint — pending damage
overlapping the scroll area, a partially clipped view, a backend whose
glyphs overlap the scroll unit, or a drawable without ``copy_area``
(:attr:`repro.graphics.graphic.Graphic.can_copy_area`) — and the
caller falls back to plain area damage.  What the port's drawable can
do is the only switch; ``enabled`` stays as a constant for callers
that report the drawing configuration.
"""

__all__ = ["enabled"]

#: Scrolls always try the shift.
enabled = True
