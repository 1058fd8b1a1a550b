"""The scroll shift-blit switch (ROADMAP's frame-rate push).

Scrolling used to be invalidate-everything: a one-row scroll posted
full-view damage and the repaint pass redrew every visible line.  With
this gate open, a scrollable view that moves its viewport origin
instead *shifts* the still-valid region of the window surface in place
(a same-surface ``copy_area`` on the backend) and posts damage only
for the newly exposed strip.

The shift is a pure optimisation: :meth:`repro.core.view.View.
want_scroll` returns ``False`` (and posts nothing) whenever the shift
cannot be proven pixel-identical to a full repaint — pending damage
overlapping the scroll area, a partially clipped view, a backend whose
glyphs overlap the scroll unit, or this switch being closed — and the
caller falls back to plain area damage.

Gated by ``ANDREW_SCROLLBLIT`` — **on by default** (set ``0``/``off``
to restore the repaint-everything behaviour, which the conformance
matrix uses to prove the shifted path renders byte-identically).
"""

from __future__ import annotations

from typing import Optional

from ..config import env_flag

__all__ = ["SCROLLBLIT_ENV", "enabled", "scrollblit_enabled", "configure"]

SCROLLBLIT_ENV = "ANDREW_SCROLLBLIT"

#: Hot-path switch, read directly as ``scrollblit.enabled``.
enabled: bool = env_flag(SCROLLBLIT_ENV, True)


def scrollblit_enabled() -> bool:
    return enabled


def configure(on: Optional[bool] = None) -> None:
    """Flip the shift-blit at run time (tests, benches, embedding apps).

    ``None`` leaves the switch unchanged.  Turning it off only stops
    *new* scrolls from shifting; a shift already queued on the
    interaction manager still executes at the next flush.
    """
    global enabled
    if on is not None:
        enabled = bool(on)
