"""The scroll shift-blit.

A scrollable view that moves its viewport origin *shifts* the
still-valid region of the window surface in place (a same-surface
``copy_area`` on the backend, run when the scroll is posted) and posts
damage only for the newly exposed strip, instead of repainting the
whole pane.  The view's own queued damage inside the area moves with
the pixels it marks.

The shift is a pure optimisation: :meth:`repro.core.view.View.
want_scroll` returns ``False`` (and shifts and posts nothing) whenever
the shift cannot be proven pixel-identical to a full repaint — another
view's damage queued in the scroll area, the view's own damage
straddling or covering it, a partially clipped view, a backend whose
glyphs overlap the scroll unit, or a drawable without ``copy_area``
(:attr:`repro.graphics.graphic.Graphic.can_copy_area`) — and the
caller falls back to plain area damage.  What the port's drawable can
do is the only switch; ``enabled`` stays as a constant for callers
that report the drawing configuration.
"""

__all__ = ["enabled"]

#: Scrolls always try the shift.
enabled = True
