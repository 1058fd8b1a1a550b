"""The asyncio multi-session server loop.

This is the ROADMAP's "many IMs share one process" step: the §7
``runapp`` shared-image idea taken from *many applications, one user*
to *many users, one resident toolkit*.  The loop owns a fleet of
:class:`~repro.server.session.Session` objects and schedules them
fairly; all rendering work stays inside each session's synchronous
``process_events`` drain, so session state management lives entirely
outside the render path.

Scheduling policy
-----------------

* **Cycles, not threads.**  :meth:`ServerLoop.run_cycle` is one fair
  pass: the timer wheel advances one tick, then every *ready* session
  (queued input or pending damage) is granted one slice of at most
  ``slice_events`` events — transfer, drain, repaint, synchronously.
  A session with 10,000 queued keystrokes therefore takes exactly one
  slice per cycle, the same as a session with one keystroke: busy
  neighbours cost latency proportional to fleet readiness, never
  starvation.
* **A ready queue fed by doorbells.**  A cycle costs its ready
  sessions, not the fleet: it never walks idle sessions.  Every way a
  session becomes ready rings its doorbell, the ``wake`` that
  :meth:`ServerLoop.add_session` hooks into four places —
  :meth:`Session.submit`, ``BackendWindow.post_event`` (``im.tick``,
  synthetic input, direct posts), ``InteractionManager.post_update``
  (damage, including an edit made through another session's view of a
  shared data object), and the supervisor's watchdog resume (a
  readmitted session is checked on admission).  The wake puts the
  session in an insertion-ordered ready set — the explicit ready list
  of Banga, Mogul and Druschel's scalable event delivery (USENIX 1999),
  as epoll keeps it.  :attr:`Session.ready` stays the single source of
  truth: a cycle re-checks it only for queued sessions, drops those no
  longer ready, and keeps those with input left for the next cycle.
* **Rotating head.**  Each cycle serves its ready sessions in circular
  admission order, starting from a head that advances one admitted
  session per cycle, so no session is structurally first (or last)
  every cycle — with a per-cycle repaint budget in force, the sessions
  deferred this cycle stay queued and the head moves on.  Ordering
  costs O(k log k) for k ready sessions.  A session woken mid-cycle by
  another's slice joins the cycle if its turn is still to come, as a
  pass over the whole fleet would have served it; otherwise it waits
  for the next cycle.
* **Cooperative repaint budgeting.**  ``cycle_budget_ns`` (optional)
  caps the wall-clock a single cycle may spend repainting; once
  exceeded, remaining sessions are deferred to the next cycle (counter
  ``server.cycle_deferred``) rather than run late.
* **Fault isolation.**  View-level faults are already quarantined
  inside the IM; anything that still escapes a session's drain is
  contained at the session boundary (``server.session_errors``,
  ``Session.last_error``) and the cycle moves on — one broken session
  never stalls another.  With a :class:`~repro.server.supervisor.
  Supervisor` attached, containment is no longer terminal: the crash
  climbs the supervision ladder (contain → restart-from-checkpoint →
  sticky-dead) and slow slices feed the watchdog.
* **Admission control.**  ``admission_limit`` caps the fleet; past it
  :meth:`add_session` raises the *typed* :class:`AdmissionRefused`
  (and counts ``server.admission_refused``) instead of degrading every
  existing session — refusing late is the one thing a loaded server
  must never do implicitly.  Supervisor restarts re-enter with
  ``readmit=True``: a restarting session was already admitted.
* **Graceful degradation.**  When total queued input crosses
  ``degrade_high_water`` the loop enters degraded mode: remote
  encoders stretch their keyframe interval (keyframes are the bursty
  bytes) and the repaint budget tightens, trading fidelity headroom
  for throughput *before* backpressure starts refusing events.
  Hysteresis (``degrade_low_water``) keeps it from flapping.

:meth:`ServerLoop.run` is the asyncio driver: it awaits between
cycles, so producers submitting input from asyncio tasks (network
readers, replay feeders) interleave with scheduling on one event loop.
:meth:`run_until_idle` is the deterministic synchronous wrapper the
conformance matrix and tests drive.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import functools
import heapq
import operator
import time
from typing import Callable, Deque, Dict, List, Optional

from .. import obs
from ..core.im import InteractionManager
from ..wm.base import WindowSystem
from .session import DEFAULT_QUEUE_LIMIT, Session
from .supervisor import Supervisor, supervise_from_env
from .timerwheel import TimerHandle, TimerWheel

__all__ = ["AdmissionRefused", "ServerLoop", "DEFAULT_SLICE_EVENTS"]

#: Events a session may drain per scheduling slice.  Small enough that
#: a cycle over a mostly-idle fleet is dominated by ready sessions;
#: large enough that an interactive burst (a word, a paste chunk)
#: lands in one or two slices.
DEFAULT_SLICE_EVENTS = 8

#: Exited-with-error sessions retained for ``fleet_stats`` (bounded so
#: a crash storm cannot grow the ledger without limit).
EXITED_LEDGER_LIMIT = 64


class AdmissionRefused(RuntimeError):
    """Typed refusal: the fleet is at its admission limit.

    Carries the limit so the caller (a connection acceptor, a test)
    can report or retry without parsing the message.
    """

    def __init__(self, session_id: str, limit: int) -> None:
        self.session_id = session_id
        self.limit = limit
        super().__init__(
            f"session {session_id!r} refused: fleet at admission "
            f"limit {limit}")


class ServerLoop:
    """Fair, cooperative scheduler for many sessions in one process."""

    def __init__(self, *, slice_events: int = DEFAULT_SLICE_EVENTS,
                 cycle_budget_ns: Optional[int] = None,
                 wheel_slots: int = 256,
                 admission_limit: Optional[int] = None,
                 degrade_high_water: Optional[int] = None,
                 degrade_low_water: Optional[int] = None,
                 degrade_keyframe_factor: int = 4,
                 degrade_budget_divisor: int = 2) -> None:
        self.slice_events = max(1, int(slice_events))
        self.cycle_budget_ns = cycle_budget_ns
        self.wheel = TimerWheel(wheel_slots)
        self._sessions: Dict[str, Session] = {}
        #: Admission serials of the fleet, ascending: the circular
        #: round-robin order the rotating head walks.
        self._admitted: List[int] = []
        self._admissions = 0
        #: Next cycle's head: the first admitted serial at or after it.
        self._head = 0
        #: The ready queue: sessions whose doorbell rang since their
        #: last readiness check (a dict for its insertion order).
        self._ready: Dict[Session, None] = {}
        self.cycles = 0
        self._serial = 0
        self.admission_limit = admission_limit
        self.degrade_high_water = degrade_high_water
        self.degrade_low_water = (
            degrade_low_water if degrade_low_water is not None
            else (degrade_high_water // 2 if degrade_high_water else None))
        self.degrade_keyframe_factor = max(1, degrade_keyframe_factor)
        self.degrade_budget_divisor = max(1, degrade_budget_divisor)
        self.degraded = False
        #: Sessions removed while carrying an error (bounded ledger, so
        #: a crashed session's last_error survives its removal).
        self._exited: Deque[dict] = collections.deque(
            maxlen=EXITED_LEDGER_LIMIT)
        #: Set by :class:`~repro.server.supervisor.Supervisor` when one
        #: attaches; ``ANDREW_SUPERVISE=1`` builds one automatically.
        self.supervisor = None
        if supervise_from_env():
            Supervisor(self)

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def add_session(self, session: Optional[Session] = None, *,
                    session_id: Optional[str] = None,
                    im: Optional[InteractionManager] = None,
                    window_system: Optional[WindowSystem] = None,
                    width: int = 80, height: int = 24,
                    queue_limit: int = DEFAULT_QUEUE_LIMIT,
                    readmit: bool = False) -> Session:
        """Register a session (or build one around ``im``/``window_system``).

        Past ``admission_limit`` the fleet refuses with the typed
        :class:`AdmissionRefused` — unless ``readmit`` is set, which is
        how supervisor restarts re-enter: that seat was already paid
        for when the session was first admitted.
        """
        if session is None:
            if session_id is None:
                self._serial += 1
                session_id = f"s{self._serial}"
            session = Session(
                session_id, im, window_system=window_system,
                width=width, height=height, queue_limit=queue_limit,
            )
        if session.id in self._sessions:
            raise ValueError(f"duplicate session id {session.id!r}")
        if (
            self.admission_limit is not None and not readmit
            and len(self._sessions) >= self.admission_limit
        ):
            if obs.metrics_on:
                obs.registry.inc("server.admission_refused")
            raise AdmissionRefused(session.id, self.admission_limit)
        session.created_cycle = self.cycles
        session.admission = self._admissions
        self._admissions += 1
        self._sessions[session.id] = session
        self._admitted.append(session.admission)
        session.im.wake = session.im.window.wake = functools.partial(
            self._ready.__setitem__, session, None)
        if session.ready:
            self._ready[session] = None
        if obs.metrics_on:
            obs.registry.inc("server.sessions_added")
            obs.registry.gauge("server.sessions", len(self._sessions))
        return session

    def remove_session(self, session_id: str, close: bool = True) -> Session:
        session = self._sessions.pop(session_id)
        admitted = self._admitted
        del admitted[bisect.bisect_left(admitted, session.admission)]
        self._ready.pop(session, None)
        session.im.wake = session.im.window.wake = None
        if session.last_error is not None or session.stats.errors:
            # Keep the crashed session's post-mortem: close() releases
            # the window, but the error, crash count and age must stay
            # visible in fleet_stats after the session is gone.
            self._exited.append({
                "id": session.id,
                "last_error": repr(session.last_error)
                if session.last_error is not None else None,
                "errors": session.stats.errors,
                "age_cycles": self.cycles - session.created_cycle,
                "events_processed": session.stats.events_processed,
            })
        if close:
            session.close()
        if obs.metrics_on:
            obs.registry.inc("server.sessions_removed")
            obs.registry.gauge("server.sessions", len(self._sessions))
        return session

    def session(self, session_id: str) -> Session:
        return self._sessions[session_id]

    @property
    def sessions(self) -> List[Session]:
        return list(self._sessions.values())

    def ready_sessions(self) -> List[Session]:
        """Sessions a cycle would serve, in admission order."""
        return sorted((s for s in self._ready if s.ready),
                      key=operator.attrgetter("admission"))

    # ------------------------------------------------------------------
    # Timers (sessions share one wheel instead of per-window clocks)
    # ------------------------------------------------------------------

    def call_later(self, delay: int, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` scheduler cycles."""
        return self.wheel.schedule(delay, callback)

    def call_every(self, interval: int,
                   callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` every ``interval`` cycles until cancelled."""
        if interval < 1:
            raise ValueError("interval must be >= 1 cycle")
        return self.wheel.schedule(interval - 1, callback, interval=interval)

    def schedule_tick(self, session: Session, every: int) -> TimerHandle:
        """Deliver the session's timer events every ``every`` cycles.

        The wheel posts one :class:`~repro.wm.events.TimerEvent` into
        the session's window (via ``im.tick``), which makes the session
        ready; animation views and the console then advance on their
        usual subscription path.
        """
        return self.call_every(every, session.im.tick)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def run_cycle(self) -> int:
        """One fair pass over the ready queue; returns events handled.

        Timer wheel first (ticks make sessions ready in the same cycle
        their timers fire), then one bounded slice per ready session in
        circular admission order from the rotating head.
        """
        self.cycles += 1
        self.wheel.advance(1)
        self._update_pressure()
        head = self._advance_head()
        ready = self._ready
        order = [(s.admission < head, s.admission, s) for s in ready]
        heapq.heapify(order)
        handled = 0
        deferred = 0
        budget = self.cycle_budget_ns
        if budget is not None and self.degraded:
            # Degraded mode also tightens the repaint budget: defer
            # earlier, keep the cycle short, drain queues faster.
            budget //= self.degrade_budget_divisor
        start = time.perf_counter_ns() if budget else 0
        while order:
            wrapped, admission, session = heapq.heappop(order)
            if (self._sessions.get(session.id) is not session
                    or not session.ready):
                # Removed mid-cycle, or its readiness is already spent:
                # dropped until its doorbell rings again.
                ready.pop(session, None)
                continue
            if (
                budget is not None
                and time.perf_counter_ns() - start >= budget
            ):
                # Budget exhausted: the rest stay queued for the next
                # cycle, whose head has moved on, so deferral spreads
                # across the fleet instead of pinning the tail.
                deferred += 1
                continue
            tail = next(reversed(ready), None)
            try:
                handled += session.pump(self.slice_events)
            except Exception as exc:
                # The session-boundary backstop: per-view quarantine
                # and the IM's own containment sit below this, so what
                # lands here is session-fatal, not server-fatal.
                session.last_error = exc
                session.stats.errors += 1
                if obs.metrics_on:
                    obs.registry.inc("server.session_errors")
                if self.supervisor is not None:
                    self.supervisor.on_crash(session, exc)
            else:
                if self.supervisor is not None:
                    self.supervisor.note_slice(
                        session, session.stats.last_slice_ns)
            if tail in ready and next(reversed(ready)) is not tail:
                # The slice woke other sessions (a shared data object):
                # those whose turn is still to come join this cycle.
                for woken in reversed(ready):
                    if woken is tail:
                        break
                    key = (woken.admission < head, woken.admission)
                    if key > (wrapped, admission):
                        heapq.heappush(order, (*key, woken))
            if not session.ready:
                ready.pop(session, None)
        if obs.metrics_on:
            obs.registry.inc("server.cycles")
            if deferred:
                obs.registry.inc("server.cycle_deferred", deferred)
            if self.degraded:
                obs.registry.inc("server.degraded_cycles")
        return handled

    def _advance_head(self) -> int:
        """This cycle's head serial; the next cycle starts one later."""
        admitted = self._admitted
        if not admitted:
            return 0
        index = bisect.bisect_left(admitted, self._head)
        head = admitted[index] if index < len(admitted) else admitted[0]
        self._head = head + 1
        return head

    def _any_ready(self) -> bool:
        """Drop queued sessions no longer ready; True if any remain."""
        ready = self._ready
        for session in [s for s in ready if not s.ready]:
            del ready[session]
        return bool(ready)

    # ------------------------------------------------------------------
    # Graceful degradation (load shedding that starts with fidelity)
    # ------------------------------------------------------------------

    def queued_events(self) -> int:
        """Total input waiting across the fleet (the pressure signal)."""
        return sum(s.queue_depth() for s in self._sessions.values())

    def _update_pressure(self) -> None:
        if self.degrade_high_water is None:
            return
        depth = self.queued_events()
        if not self.degraded and depth >= self.degrade_high_water:
            self.degraded = True
            self._stretch_encoders()
            if obs.metrics_on:
                obs.registry.inc("server.degrade_entered")
                obs.registry.gauge("server.degraded", 1)
        elif self.degraded and depth <= (self.degrade_low_water or 0):
            self.degraded = False
            self._restore_encoders()
            if obs.metrics_on:
                obs.registry.gauge("server.degraded", 0)

    def _remote_encoders(self):
        for session in self._sessions.values():
            encoder = getattr(session.im.window, "_encoder", None)
            if encoder is not None:
                yield encoder

    def _stretch_encoders(self) -> None:
        # Keyframes are the bursty bytes on the wire; under pressure a
        # longer keyframe interval sheds bandwidth before any event is
        # refused.  Sessions on local backends have no encoder and are
        # naturally unaffected.
        for encoder in self._remote_encoders():
            encoder.stretch_keyframes(self.degrade_keyframe_factor)

    def _restore_encoders(self) -> None:
        for encoder in self._remote_encoders():
            encoder.restore_keyframes()

    def _supervision_pending(self) -> bool:
        """True while the supervisor owes the fleet work: a session
        waiting out a restart backoff or a watchdog suspension will
        become ready again only if cycles keep running."""
        if self.supervisor is None:
            return False
        return any(
            entry.state in ("restarting", "suspended")
            for entry in self.supervisor._entries.values()
        )

    def run_until_idle(self, max_cycles: Optional[int] = None) -> int:
        """Synchronous drain: cycle until no session is ready.

        Deterministic (no clock, no asyncio) — the conformance matrix
        drives single sessions through this to prove byte-identity with
        the standalone loop.  Cycles also continue while the supervisor
        has sessions mid-restart or suspended (both states resolve in a
        bounded number of cycles).  Returns total events handled.
        """
        total = 0
        cycles = 0
        while self._any_ready() or self._supervision_pending():
            total += self.run_cycle()
            cycles += 1
            if max_cycles is not None and cycles >= max_cycles:
                break
        return total

    async def run(self, *, stop_when_idle: bool = True,
                  idle_cycles: int = 2,
                  max_cycles: Optional[int] = None) -> int:
        """The asyncio main loop: cycle, yield, repeat.

        Awaiting between cycles hands the asyncio loop to producer
        tasks (feeders calling :meth:`Session.submit`), so input
        arrival and scheduling interleave cooperatively on one thread.
        With ``stop_when_idle`` the loop returns after ``idle_cycles``
        consecutive cycles in which no session was ready; otherwise it
        runs until ``max_cycles`` (or cancellation).  Returns total
        events handled.
        """
        total = 0
        idle = 0
        cycles = 0
        while True:
            handled = self.run_cycle()
            total += handled
            cycles += 1
            if max_cycles is not None and cycles >= max_cycles:
                break
            if (handled or self._any_ready()
                    or self._supervision_pending()):
                idle = 0
            else:
                idle += 1
                if stop_when_idle and idle >= idle_cycles:
                    break
            # The cooperative yield: producers run between cycles.
            await asyncio.sleep(0)
        return total

    # ------------------------------------------------------------------
    # Fleet observability
    # ------------------------------------------------------------------

    def fleet_stats(self) -> Dict[str, object]:
        """Aggregate the per-session stats into one fairness report.

        ``frame_p95_spread`` is the fleet's fairness number: the ratio
        of the worst session's p95 slice latency to the fleet median —
        1.0 is perfect fairness, and a busy neighbour blowing up the
        tail shows here long before users file tickets.

        ``health`` is the per-session report (state, error, crash
        count, age); ``exited`` retains the post-mortems of sessions
        that were removed while carrying an error, so a crash is never
        silently erased by its own cleanup.
        """
        sessions = list(self._sessions.values())
        p95s = sorted(
            s.stats.frame_ns.percentile(0.95) for s in sessions
            if s.stats.slices
        )
        spread = 0.0
        if p95s:
            median = p95s[len(p95s) // 2]
            spread = (p95s[-1] / median) if median else 0.0
        return {
            "sessions": len(sessions),
            "cycles": self.cycles,
            "events_in": sum(s.stats.events_in for s in sessions),
            "events_dropped": sum(s.stats.events_dropped for s in sessions),
            "events_processed": sum(
                s.stats.events_processed for s in sessions
            ),
            "errors": sum(s.stats.errors for s in sessions),
            "max_queue_depth": max(
                (s.queue_depth() for s in sessions), default=0
            ),
            "frame_p95_ns_median": p95s[len(p95s) // 2] if p95s else 0,
            "frame_p95_ns_worst": p95s[-1] if p95s else 0,
            "frame_p95_spread": round(spread, 2),
            "degraded": self.degraded,
            "health": self.session_health(),
            "exited": list(self._exited),
        }

    def session_health(self) -> Dict[str, dict]:
        """Per-session health: scheduler view merged with the ladder's.

        Supervised sessions report their supervision state and strike
        counts; bare sessions still report error, age and queue depth —
        the satellite fix for crashes that used to vanish with
        ``remove_session``.
        """
        supervised = (
            self.supervisor.health() if self.supervisor is not None else {})
        report: Dict[str, dict] = {}
        for session in self._sessions.values():
            entry = {
                "state": "suspended" if session.suspended else (
                    "closed" if session.closed else "running"),
                "errors": session.stats.errors,
                "last_error": repr(session.last_error)
                if session.last_error is not None else None,
                "age_cycles": self.cycles - session.created_cycle,
                "queue": session.queue_depth(),
            }
            if session.id in supervised:
                entry.update(supervised[session.id])
            report[session.id] = entry
        # Supervised sessions currently out of the fleet (restarting
        # after backoff, or sticky-dead) still belong in the report.
        for sid, ladder in supervised.items():
            if sid not in report:
                report[sid] = dict(ladder)
        return report

    def close(self) -> None:
        """Close every session and empty the fleet."""
        for session_id in list(self._sessions):
            self.remove_session(session_id, close=True)

    def __repr__(self) -> str:
        return (
            f"<ServerLoop sessions={len(self._sessions)} "
            f"cycles={self.cycles} slice={self.slice_events}>"
        )
