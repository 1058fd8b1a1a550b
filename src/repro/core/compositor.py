"""The per-view backing-store compositor switch (paper section 4).

The paper's porting layer names an **OffScreenWindow** class that
components use to "pre-compose images".  The compositor generalizes
that: any view may opt in to a *backing store* — a lazily allocated
offscreen surface caching the subtree's last rendered image — so a
repaint pass over a *clean* subtree (no pending change records, no
descendant damage) is satisfied by a single blit instead of
re-executing the subtree's draw code.

Two gates must both be open for a view to composite:

* the view opted in with :meth:`~repro.core.view.View.set_backing_store`
  (the caller asserts the subtree's image is self-contained — it never
  reads pixels an ancestor painted underneath it); and
* the process-wide switch below, controlled by the ``ANDREW_COMPOSITOR``
  environment variable (off by default) or flipped at run time with
  :func:`configure` — the same shape as ``repro.obs``'s switches.

The surface byte-budget lives with the pool that enforces it
(:class:`repro.wm.base.SurfacePool`, ``ANDREW_COMPOSITOR_BUDGET``).
Snapshot-equivalence tests (``tests/test_compositor.py``) prove that
rendering with the switch on is pixel-identical to rendering with it
off on both backends.
"""

from __future__ import annotations

from typing import Optional

from ..config import env_flag

__all__ = ["COMPOSITOR_ENV", "enabled", "compositor_enabled", "configure"]

COMPOSITOR_ENV = "ANDREW_COMPOSITOR"

#: Hot-path switch.  The view tree reads this module attribute directly:
#: ``if compositor.enabled and self.backing_store: ...``.
enabled: bool = env_flag(COMPOSITOR_ENV, False)


def compositor_enabled() -> bool:
    return enabled


def configure(on: Optional[bool] = None) -> None:
    """Flip the compositor at run time (tests, benches, embedding apps).

    ``None`` leaves the switch unchanged.  Turning the switch off does
    not free existing backing stores; they simply stop being consulted
    (and keep aging out of the LRU pool as other surfaces are acquired).
    """
    global enabled
    if on is not None:
        enabled = bool(on)
