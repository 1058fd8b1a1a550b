"""One user session hosted by the multi-session server loop.

The paper's §7 ``runapp`` lets many *applications* share one resident
toolkit image — but still one user per process.  :class:`Session` is
the lift that takes the same idea to server scale: it owns one
:class:`~repro.core.im.InteractionManager` (a whole view tree plus its
backend window) and everything the scheduler needs to multiplex
thousands of such trees through a single process:

* a **bounded input queue** with backpressure — producers call
  :meth:`submit`, which refuses (returns ``False``) once the queue is
  full, so one flooding client can neither grow memory without bound
  nor smuggle unbounded work past the scheduler's fairness slices;
* **per-session telemetry** — a :class:`SessionStats` record built from
  the same :mod:`repro.obs` primitives the rest of the toolkit reports
  with, so the soak bench reads per-session p95 frame latency and the
  fairness spread straight from session stats and the shared registry;
* a synchronous :meth:`pump` — the scheduler's per-slice entry point.
  ``InteractionManager.process_events`` stays exactly the inner drain
  it always was; the session merely moves a budget's worth of queued
  input into the window first and times the slice around it.

Sessions never touch asyncio themselves: everything here is
synchronous and deterministic, which is what lets the conformance
matrix prove a session driven by the server loop renders byte-for-byte
what the standalone loop renders.
"""

from __future__ import annotations

import collections
import time
from typing import Deque, Optional

from .. import obs
from ..core.im import InteractionManager
from ..obs.metrics import TimerStat
from ..testing import faultinject
from ..wm.base import WindowSystem
from ..wm.events import Event, KeyEvent

__all__ = ["Session", "SessionStats", "DEFAULT_QUEUE_LIMIT"]

#: Default bound on a session's input queue (events awaiting transfer
#: into the window).  Generous for interactive use; small enough that a
#: flood is refused long before it threatens the process.
DEFAULT_QUEUE_LIMIT = 256


class SessionStats:
    """Per-session observability counters (the obs registry's shape,
    held per session so a 10k-session fleet stays cheap to aggregate).
    """

    __slots__ = (
        "events_in", "events_dropped", "events_processed",
        "slices", "errors", "frame_ns", "last_slice_ns",
    )

    def __init__(self) -> None:
        self.events_in = 0          # accepted into the input queue
        self.events_dropped = 0     # refused by backpressure
        self.events_processed = 0   # drained through the IM
        self.slices = 0             # scheduler slices granted
        self.errors = 0             # exceptions contained at the boundary
        #: Slice latency distribution (same TimerStat the registry uses;
        #: p95 of this is the session's frame latency).
        self.frame_ns = TimerStat("session.frame_ns")
        #: Duration of the most recent slice (the watchdog's input).
        self.last_slice_ns = 0

    def as_dict(self) -> dict:
        return {
            "events_in": self.events_in,
            "events_dropped": self.events_dropped,
            "events_processed": self.events_processed,
            "slices": self.slices,
            "errors": self.errors,
            "frame_p50_ns": self.frame_ns.percentile(0.50),
            "frame_p95_ns": self.frame_ns.percentile(0.95),
        }


class Session:
    """One interaction manager behind a bounded, scheduled input queue."""

    def __init__(self, session_id: str,
                 im: Optional[InteractionManager] = None, *,
                 window_system: Optional[WindowSystem] = None,
                 title: Optional[str] = None,
                 width: int = 80, height: int = 24,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        if im is None:
            if window_system is None:
                raise ValueError("Session needs an im or a window_system")
            im = InteractionManager(
                window_system, title or f"session:{session_id}",
                width=width, height=height,
            )
        self.id = session_id
        self.im = im
        self.queue_limit = max(1, int(queue_limit))
        self._inbox: Deque[Event] = collections.deque()
        self.stats = SessionStats()
        self.closed = False
        #: Watchdog suspension: a suspended session is never ready, so
        #: the scheduler skips it until the supervisor resumes it.
        self.suspended = False
        #: The server-loop cycle this session was registered on (set by
        #: ``ServerLoop.add_session``; ages in ``fleet_stats`` health).
        self.created_cycle = 0
        #: Admission serial (set by ``ServerLoop.add_session``): the
        #: session's place in the loop's round-robin order.
        self.admission = 0
        #: Last exception the server loop contained at this session's
        #: boundary (quarantine handles per-view faults below this).
        self.last_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Input (producer side; backpressure lives here)
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        return len(self._inbox)

    def submit(self, event: Event) -> bool:
        """Offer one input event; False means the queue is full.

        Refusal is the backpressure signal: the producer (a network
        edge, a replay driver) decides whether to retry, coalesce or
        drop — the session has already protected itself either way.
        """
        if self.closed or len(self._inbox) >= self.queue_limit:
            self.stats.events_dropped += 1
            if obs.metrics_on:
                obs.registry.inc("server.events_dropped")
            return False
        self._inbox.append(event)
        self.stats.events_in += 1
        if self.im.wake is not None:
            self.im.wake()
        if obs.metrics_on:
            obs.registry.inc("server.events_in")
        return True

    def submit_key(self, char: str, ctrl: bool = False,
                   meta: bool = False) -> bool:
        return self.submit(KeyEvent(char, ctrl=ctrl, meta=meta))

    def submit_text(self, text: str) -> int:
        """Type ``text`` one keystroke at a time; returns keys accepted."""
        accepted = 0
        for char in text:
            if not self.submit_key("Return" if char == "\n" else char):
                break
            accepted += 1
        return accepted

    # ------------------------------------------------------------------
    # Scheduling (consumer side; the server loop calls these)
    # ------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        """True when a slice would do work: queued input (here or in the
        window) or damage awaiting a flush."""
        if self.closed or self.suspended:
            return False
        return bool(
            self._inbox
            or self.im.window.queued_events()
            or not self.im.updates.is_empty()
        )

    def pump(self, budget: Optional[int] = None) -> int:
        """Run one scheduler slice: transfer, drain, repaint — bounded.

        Moves up to ``budget`` queued events into the backend window,
        then calls :meth:`InteractionManager.process_events` with the
        same limit — the synchronous inner drain, which also flushes
        pending updates.  Returns the number of events handled.  The
        slice is timed into :attr:`SessionStats.frame_ns` and the
        shared registry (``server.frame_ns``).
        """
        if faultinject.enabled:
            # The ``server.pump`` seam: a session's own application
            # code dying at slice time.  Before the transfer loop, so
            # queued input survives the crash for the restarted session.
            faultinject.maybe_raise("server.pump")
        window = self.im.window
        moved = 0
        while self._inbox and (budget is None or moved < budget):
            window.post_event(self._inbox.popleft())
            moved += 1
        start = time.perf_counter_ns()
        try:
            handled = self.im.process_events(limit=budget)
        finally:
            elapsed = time.perf_counter_ns() - start
            self.stats.slices += 1
            self.stats.last_slice_ns = elapsed
            self.stats.frame_ns.observe(elapsed)
            if obs.metrics_on:
                obs.registry.observe_ns("server.frame_ns", elapsed)
                obs.registry.inc("server.slices")
        self.stats.events_processed += handled
        if obs.metrics_on and handled:
            obs.registry.inc("server.events_processed", handled)
        return handled

    def drain(self) -> int:
        """Pump repeatedly until idle (a convenience for tests/tools)."""
        total = 0
        while self.ready:
            total += self.pump(None)
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting input and release the session's window."""
        if self.closed:
            return
        self.closed = True
        self._inbox.clear()
        self.im.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"queue={len(self._inbox)}"
        return f"<Session {self.id!r} {state}>"
