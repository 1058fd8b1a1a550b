"""Fault containment for the view tree (the §2–3 coexistence promise).

The paper's architecture lets third-party components — data objects,
views, dynamically loaded classes — coexist inside one compound
document.  That promise is only as good as the toolkit's behaviour when
one of them is *wrong*: a view whose ``draw`` raises must degrade to a
placeholder (the visual analogue of the unknown-object box documents
show for classes the reader doesn't have), not abort the repaint pass
and take its siblings' pixels with it.

This module holds the containment switch and the per-view quarantine
record; the enforcement points live at the boundaries:

* :meth:`repro.core.view.View.full_update` — any exception escaping a
  subtree's render marks the subtree quarantined, discards its pending
  damage and paints a bordered placeholder naming the error.  Siblings
  keep painting.
* :meth:`repro.core.view.View.dispatch_mouse` and the interaction
  manager's key/menu/timer dispatch — a handler that raises quarantines
  its view and the event continues along the chain.
* :meth:`repro.core.im.InteractionManager.process_events` — the queue
  always drains and ``flush_updates`` always runs.

Quarantined views retry on later damage passes with capped exponential
backoff; after :data:`STICKY_LIMIT` consecutive failures the quarantine
is sticky until :meth:`~repro.core.view.View.reset_quarantine`.

Gated by ``ANDREW_QUARANTINE`` — **on by default** (set ``0``/``off``
to get the old propagate-everything behaviour, which the conformance
matrix uses to prove the contained path renders byte-identically).
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..config import env_flag

__all__ = [
    "QUARANTINE_ENV",
    "STICKY_LIMIT",
    "COOLDOWN_CAP",
    "Quarantine",
    "enabled",
    "quarantine_enabled",
    "configure",
    "contain_handler",
]

QUARANTINE_ENV = "ANDREW_QUARANTINE"

#: Consecutive failures after which a quarantine stops retrying.
STICKY_LIMIT = 5
#: Upper bound on the number of damage passes skipped between retries.
COOLDOWN_CAP = 8

#: Hot-path switch, **on by default**.  Containment sites read this
#: module attribute directly: ``if faults.enabled: ...``.
enabled: bool = env_flag(QUARANTINE_ENV, True)


def quarantine_enabled() -> bool:
    return enabled


def configure(on: Optional[bool] = None) -> None:
    """Flip containment at run time (tests, benches, embedding apps).

    ``None`` leaves the switch unchanged.  Turning it off does not
    clear existing quarantine records; views resume rendering live (a
    quarantined view's next exception then propagates as before).
    """
    global enabled
    if on is not None:
        enabled = bool(on)


class Quarantine:
    """One view's containment state: why it failed, and when to retry."""

    __slots__ = ("error", "failures", "cooldown", "sticky")

    def __init__(self) -> None:
        self.error = ""
        self.failures = 0
        self.cooldown = 0
        self.sticky = False

    def record_failure(self, exc: BaseException) -> None:
        """Note one failed render/handler call; schedule the next retry.

        Backoff doubles per consecutive failure (1, 2, 4, ... capped at
        :data:`COOLDOWN_CAP` skipped passes); the placeholder therefore
        shows for at least one full damage pass before any retry.
        """
        self.failures += 1
        message = str(exc)
        label = type(exc).__name__
        if message:
            label = f"{label}: {message}"
        self.error = label[:60]
        self.cooldown = min(2 ** (self.failures - 1), COOLDOWN_CAP)
        self.sticky = self.failures >= STICKY_LIMIT

    def should_retry(self) -> bool:
        """True when the next damage pass should attempt a live render."""
        return not self.sticky and self.cooldown <= 0

    def note_skipped_pass(self) -> None:
        """One damage pass rendered the placeholder instead of retrying."""
        if self.cooldown > 0:
            self.cooldown -= 1

    def __repr__(self) -> str:
        return (
            f"<Quarantine failures={self.failures} sticky={self.sticky} "
            f"cooldown={self.cooldown} error={self.error!r}>"
        )


def contain_handler(view, exc: BaseException) -> None:
    """Contain an event-handler exception at the IM boundary.

    Quarantines ``view`` (so the fault is visible as a placeholder, not
    silent) and requests a repaint to show it.  Counted separately from
    render containment (``im.handler_contained``) so the chaos matrix
    can account for every injected fault by boundary.
    """
    if obs.metrics_on:
        obs.registry.inc("im.handler_contained")
    view.quarantine_failure(exc)
    try:
        view.want_update()
    except Exception:  # pragma: no cover - want_update must not raise
        pass
