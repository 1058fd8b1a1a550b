"""Deterministic, seeded fault injection (the chaos half of robustness).

The fault-containment layer (:mod:`repro.core.faults`) promises that a
misbehaving component degrades to a placeholder instead of taking the
window down.  This module *proves* it: a seeded injector raises
:class:`InjectedFault` at instrumented seams on a deterministic
schedule, and the conformance chaos matrix asserts that every injected
fault is contained and accounted for in telemetry.

Seams (each names the third-party code it stands in for):

``view.draw``
    A view's ``draw``/``layout`` raising mid-repaint
    (:meth:`repro.core.view.View._render_subtree`).
``wm.device``
    A backend device op failing under a view's ink
    (:meth:`repro.graphics.graphic.Graphic` emit dispatchers).
``observer.notify``
    An observer blowing up on delivery
    (:meth:`repro.class_system.observable.Observable.notify_observers`).
``datastream.read``
    An embedded object's ``read_body`` dying on its own data
    (:meth:`repro.core.datastream.DataStreamReader.read_object`).
``remote.send``
    A lossy remote-display transport: the sender turns a crossing into
    a dropped or short-written frame instead of an exception
    (:func:`repro.remote.transport.faulty_send`), and the chaos suite
    proves the renderer resynchronizes at the next keyframe.
``remote.connect``
    A remote transport (re)connect attempt dying — the peer is down,
    the route is gone (:meth:`repro.remote.reconnect.ReconnectingSink.
    _try_connect`); the reconnect layer backs off and retries.
``server.pump``
    A session's application code dying at slice time, before any event
    moves (:meth:`repro.server.session.Session.pump`); the server loop
    contains it at the session boundary and the supervisor's crash
    ladder (contain → restart-from-checkpoint → sticky-dead) engages.

Switched on by ``ANDREW_FAULTS=<seed>:<rate>`` (e.g. ``1234:0.05``) or
at run time with :func:`configure`.  The schedule is a function of the
seed and the *sequence of seam calls only*, so a failing run replays
exactly under the same seed.  Off by default; the off path is one
module-attribute check per seam.
"""

from __future__ import annotations

import contextlib
import random
from typing import Iterator, Optional, Tuple

from .. import obs
from ..config import env_str

__all__ = [
    "FAULTS_ENV",
    "SEAMS",
    "FaultInjector",
    "InjectedFault",
    "configure",
    "injector",
    "maybe_raise",
    "suspended",
]

FAULTS_ENV = "ANDREW_FAULTS"

#: The instrumented seams, for validation and reporting.
SEAMS = ("view.draw", "wm.device", "observer.notify", "datastream.read",
         "remote.send", "remote.connect", "server.pump")


class InjectedFault(RuntimeError):
    """The exception every injected fault raises.

    A ``RuntimeError`` subclass on purpose: containment code must never
    special-case it — whatever catches an injected fault would have
    caught the real component bug it stands in for.
    """

    def __init__(self, seam: str, ordinal: int) -> None:
        self.seam = seam
        self.ordinal = ordinal
        super().__init__(f"injected fault #{ordinal} at seam {seam!r}")


def parse_spec(spec: str) -> Optional[Tuple[int, float]]:
    """Parse ``<seed>:<rate>``; returns None when malformed or rate<=0."""
    parts = spec.strip().split(":")
    if len(parts) != 2:
        return None
    try:
        seed, rate = int(parts[0]), float(parts[1])
    except ValueError:
        return None
    if not 0.0 < rate <= 1.0:
        return None
    return seed, rate


class FaultInjector:
    """Raises at seams on a seeded pseudo-random schedule."""

    def __init__(self, seed: int, rate: float,
                 seams: Optional[Tuple[str, ...]] = None) -> None:
        self.seed = seed
        self.rate = rate
        self.seams = SEAMS if seams is None else tuple(seams)
        self._rng = random.Random(seed)
        self._suspend = 0
        self.calls = 0
        self.fired = 0

    def maybe_raise(self, seam: str) -> None:
        """One seam crossing: raise :class:`InjectedFault` or return.

        Suspended crossings (toolkit-internal drawing such as the
        quarantine placeholder, or the IM's own damage prefill) do not
        consume schedule entries, so suspension never shifts the
        schedule of the component seams around it.
        """
        if self._suspend or seam not in self.seams:
            return
        self.calls += 1
        if self._rng.random() >= self.rate:
            return
        self.fired += 1
        if obs.metrics_on:
            obs.registry.inc("faults.injected")
            obs.registry.inc(f"faults.injected.{seam}")
        raise InjectedFault(seam, self.fired)

    @contextlib.contextmanager
    def suspended_region(self) -> Iterator[None]:
        self._suspend += 1
        try:
            yield
        finally:
            self._suspend -= 1

    def __repr__(self) -> str:
        return (
            f"<FaultInjector seed={self.seed} rate={self.rate} "
            f"fired={self.fired}/{self.calls}>"
        )


def _from_env() -> Optional[FaultInjector]:
    spec = env_str(FAULTS_ENV, "")
    if not spec:
        return None
    parsed = parse_spec(spec)
    if parsed is None:
        return None
    return FaultInjector(*parsed)


#: The process-wide injector (None = off).  Seams read the ``enabled``
#: flag first — one attribute test is the whole off-path cost.
injector: Optional[FaultInjector] = _from_env()
enabled: bool = injector is not None


def configure(seed: Optional[int] = None, rate: float = 0.05,
              seams: Optional[Tuple[str, ...]] = None) -> Optional[FaultInjector]:
    """Install a fresh injector (or disable with ``seed=None``).

    Returns the active injector so tests can read ``fired``/``calls``.
    """
    global injector, enabled
    if seed is None:
        injector = None
        enabled = False
        return None
    injector = FaultInjector(seed, rate, seams)
    enabled = True
    return injector


def maybe_raise(seam: str) -> None:
    """Module-level seam entry point (no-op when injection is off)."""
    active = injector
    if active is not None:
        active.maybe_raise(seam)


class _NullRegion:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_REGION = _NullRegion()


def suspended():
    """Context manager: seams inside do not fire (toolkit-internal ink)."""
    active = injector
    if active is None:
        return _NULL_REGION
    return active.suspended_region()
