"""Session supervision: watchdog, crash-ladder restarts, checkpoints.

The server loop (PR 6) contains a session-fatal exception at the
session boundary and moves on — correct, but terminal: the crashed
session parks its ``last_error`` and never serves again.  This module
is the missing lifecycle layer above that backstop, the same shape the
Application Management Toolkit line of work treats as a first-class
toolkit service: *supervised* applications that restart, recover their
state, and report their health.

Three mechanisms, mirroring the per-view quarantine ladder one level
up:

* **Watchdog** — every supervised pump is measured against a slice
  deadline (:attr:`SupervisorPolicy.watchdog_ns`).  A cooperative
  scheduler cannot preempt a slow slice, but it can refuse to grant
  the next one: after :attr:`SupervisorPolicy.watchdog_strikes`
  consecutive over-deadline slices the session is *suspended* (skipped
  by the scheduler) for :attr:`SupervisorPolicy.suspend_cycles`
  cycles, so one pathological session degrades itself instead of the
  fleet's tail latency.
* **Crash escalation** — contain → restart → sticky-dead.  The first
  :attr:`SupervisorPolicy.contain_strikes` crashes are contained in
  place (the PR 6 behaviour: error parked, session keeps its state).
  Further crashes *escalate*: the session is torn down and rebuilt
  from its factory after a capped-exponential backoff with
  deterministic jitter (a function of the session id and restart
  count, so a seeded chaos run replays exactly).  After
  :attr:`SupervisorPolicy.max_strikes` total crashes the session is
  sticky-dead until :meth:`Supervisor.revive` — a crash loop must not
  buy unlimited restart work.
* **Checkpoint/restore** — each supervised session names its documents
  (:class:`DocumentBinding`); the supervisor serializes them on a
  periodic wheel timer and again at escalation time (the documents are
  plain data objects — a pump crash does not corrupt them), through
  the same atomic tmp+fsync+rename machinery ``save_document`` uses
  (:func:`repro.core.application.atomic_write_bytes`) when a
  checkpoint directory is configured, and always into an in-memory
  copy.  A restarted session re-reads the latest checkpoint, so no
  saved keystroke is lost across a restart; pending queue input is
  carried over to the rebuilt session as well.

Accounting is conservation-shaped, like every containment layer here:
``server.restarts`` equals ``server.crash_escalations`` once the wheel
drains, ``server.watchdog_resumed`` balances
``server.watchdog_suspended``, and a dead session is exactly one that
crossed ``max_strikes`` (``server.sessions_dead``).

Enable by constructing a :class:`Supervisor` around a
:class:`~repro.server.serverloop.ServerLoop` (or set
``ANDREW_SUPERVISE=1`` to have the loop build one itself;
``ANDREW_CHECKPOINT_INTERVAL=<cycles>`` tunes the checkpoint cadence).
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from ..config import env_flag, env_str
from ..core.application import atomic_write_bytes
from ..core.datastream import read_document, write_document
from .session import Session

__all__ = [
    "CHECKPOINT_INTERVAL_ENV",
    "SUPERVISE_ENV",
    "DocumentBinding",
    "SupervisedEntry",
    "Supervisor",
    "SupervisorPolicy",
]

SUPERVISE_ENV = "ANDREW_SUPERVISE"
CHECKPOINT_INTERVAL_ENV = "ANDREW_CHECKPOINT_INTERVAL"

#: Supervised-session lifecycle states.
RUNNING, SUSPENDED, RESTARTING, DEAD = (
    "running", "suspended", "restarting", "dead")


def supervise_from_env() -> bool:
    """True when ``ANDREW_SUPERVISE`` asks the loop to self-supervise."""
    return env_flag(SUPERVISE_ENV, False)


def checkpoint_interval_from_env(default: int) -> int:
    try:
        value = int(env_str(CHECKPOINT_INTERVAL_ENV, str(default)))
    except ValueError:
        return default
    return value if value >= 1 else default


class SupervisorPolicy:
    """The supervision ladder's knobs (all deterministic, cycle-based)."""

    __slots__ = (
        "contain_strikes", "max_strikes", "backoff_base", "backoff_cap",
        "jitter_span", "watchdog_ns", "watchdog_strikes", "suspend_cycles",
        "checkpoint_interval",
    )

    def __init__(self, *,
                 contain_strikes: int = 1,
                 max_strikes: int = 5,
                 backoff_base: int = 2,
                 backoff_cap: int = 32,
                 jitter_span: int = 3,
                 watchdog_ns: Optional[int] = None,
                 watchdog_strikes: int = 3,
                 suspend_cycles: int = 8,
                 checkpoint_interval: int = 32) -> None:
        if contain_strikes < 0:
            raise ValueError("contain_strikes must be >= 0")
        if max_strikes <= contain_strikes:
            raise ValueError("max_strikes must exceed contain_strikes")
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError("need 1 <= backoff_base <= backoff_cap")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.contain_strikes = contain_strikes
        self.max_strikes = max_strikes
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter_span = max(0, jitter_span)
        self.watchdog_ns = watchdog_ns
        self.watchdog_strikes = max(1, watchdog_strikes)
        self.suspend_cycles = max(1, suspend_cycles)
        self.checkpoint_interval = checkpoint_interval

    def restart_delay(self, session_id: str, restarts: int) -> int:
        """Backoff cycles before restart ``restarts`` of ``session_id``.

        Capped exponential plus *deterministic* jitter — a CRC of the
        (session id, restart ordinal) pair, never a live RNG — so a
        kill-storm replayed under the same fault seed restarts every
        session on exactly the same cycles, while distinct sessions
        escalated on the same cycle still spread out instead of
        thundering back in lockstep.
        """
        delay = min(self.backoff_cap, self.backoff_base << min(restarts, 16))
        if self.jitter_span:
            key = f"{session_id}:{restarts}".encode("ascii", "replace")
            delay += zlib.crc32(key) % (self.jitter_span + 1)
        return delay


class DocumentBinding:
    """One checkpointable document a supervised session owns.

    ``get(session)`` returns the live data object to snapshot;
    ``install(session, obj)`` puts a restored object back into a
    freshly rebuilt session (typically: build a view over it and
    ``im.set_child`` it, or splice it into an existing tree).
    """

    __slots__ = ("name", "get", "install")

    def __init__(self, name: str,
                 get: Callable[[Session], object],
                 install: Callable[[Session, object], None]) -> None:
        self.name = name
        self.get = get
        self.install = install


class SupervisedEntry:
    """One session's supervision record (survives restarts)."""

    __slots__ = (
        "session_id", "session", "build", "documents", "state",
        "crashes", "restarts", "slow_streak", "checkpoints",
        "checkpoint_count", "last_error", "_timer",
    )

    def __init__(self, session: Session,
                 build: Optional[Callable[[], Session]],
                 documents: Sequence[DocumentBinding]) -> None:
        self.session_id = session.id
        self.session = session
        self.build = build
        self.documents = list(documents)
        self.state = RUNNING
        self.crashes = 0
        self.restarts = 0
        self.slow_streak = 0
        #: Latest serialized document text per binding name.  The
        #: in-memory copy is what restarts read; the on-disk file (when
        #: a checkpoint dir is set) is the durable twin.
        self.checkpoints: Dict[str, str] = {}
        self.checkpoint_count = 0
        self.last_error: Optional[BaseException] = None
        self._timer = None

    def health(self) -> dict:
        return {
            "state": self.state,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "checkpoints": self.checkpoint_count,
            "last_error": repr(self.last_error) if self.last_error else None,
        }

    def __repr__(self) -> str:
        return (f"<SupervisedEntry {self.session_id!r} {self.state} "
                f"crashes={self.crashes} restarts={self.restarts}>")


class Supervisor:
    """Watchdog + crash ladder + checkpoints over one server loop."""

    def __init__(self, loop, *, policy: Optional[SupervisorPolicy] = None,
                 checkpoint_dir=None) -> None:
        self.loop = loop
        self.policy = policy if policy is not None else SupervisorPolicy(
            checkpoint_interval=checkpoint_interval_from_env(32))
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None)
        self._entries: Dict[str, SupervisedEntry] = {}
        loop.supervisor = self

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def supervise(self, session: Session, *,
                  build: Optional[Callable[[], Session]] = None,
                  documents: Sequence[DocumentBinding] = (),
                  checkpoint_interval: Optional[int] = None
                  ) -> SupervisedEntry:
        """Put ``session`` under supervision.

        ``build`` is the restart factory — a callable returning a fresh
        :class:`Session` with the same id; without one the ladder can
        only contain and (at ``max_strikes``) kill, never restart.
        ``documents`` name what the checkpoints snapshot.
        """
        if session.id in self._entries:
            raise ValueError(f"session {session.id!r} already supervised")
        entry = SupervisedEntry(session, build, documents)
        self._entries[session.id] = entry
        interval = (checkpoint_interval if checkpoint_interval is not None
                    else self.policy.checkpoint_interval)
        if entry.documents:
            entry._timer = self.loop.call_every(
                interval, lambda: self.checkpoint(entry.session_id))
            # First checkpoint up front: a session that crashes before
            # the first periodic tick still restores to its seed state.
            self.checkpoint(entry.session_id)
        return entry

    def entry(self, session_id: str) -> Optional[SupervisedEntry]:
        return self._entries.get(session_id)

    def forget(self, session_id: str) -> None:
        """Drop supervision (the session itself is untouched)."""
        entry = self._entries.pop(session_id, None)
        if entry is not None and entry._timer is not None:
            entry._timer.cancel()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _checkpoint_path(self, session_id: str, name: str) -> Path:
        # Path() tolerates a plain string assigned after construction.
        return Path(self.checkpoint_dir) / f"{session_id}.{name}.ad"

    def checkpoint(self, session_id: str) -> int:
        """Snapshot every bound document; returns documents written.

        Serialization failures are contained and counted
        (``server.checkpoint_errors``): the previous good checkpoint
        survives, which is exactly the degraded behaviour a restart
        wants — resume from the last state that serialized.
        """
        entry = self._entries.get(session_id)
        if entry is None or entry.state != RUNNING or not entry.documents:
            return 0
        written = 0
        for binding in entry.documents:
            try:
                text = write_document(binding.get(entry.session))
                payload = text.encode("ascii")
                if self.checkpoint_dir is not None:
                    Path(self.checkpoint_dir).mkdir(parents=True,
                                                    exist_ok=True)
                    atomic_write_bytes(
                        self._checkpoint_path(session_id, binding.name),
                        payload)
            except Exception as exc:
                entry.last_error = exc
                if obs.metrics_on:
                    obs.registry.inc("server.checkpoint_errors")
                continue
            entry.checkpoints[binding.name] = text
            written += 1
        if written:
            entry.checkpoint_count += 1
            if obs.metrics_on:
                obs.registry.inc("server.checkpoints")
                obs.registry.inc("server.checkpoint_docs", written)
        return written

    def checkpoint_text(self, session_id: str, name: str) -> Optional[str]:
        """The latest in-memory checkpoint for one bound document."""
        entry = self._entries.get(session_id)
        return entry.checkpoints.get(name) if entry is not None else None

    def _restore_documents(self, entry: SupervisedEntry) -> int:
        restored = 0
        for binding in entry.documents:
            # Per-binding containment: one unreadable checkpoint (a
            # corrupt file, a bad install) must not turn a restartable
            # session sticky-dead — the fresh session keeps its seed
            # state for that document instead.
            try:
                text = entry.checkpoints.get(binding.name)
                if text is None and self.checkpoint_dir is not None:
                    path = self._checkpoint_path(entry.session_id,
                                                 binding.name)
                    if path.exists():
                        text = path.read_text(encoding="ascii")
                if text is None:
                    continue
                obj = read_document(text, salvage=True)
                binding.install(entry.session, obj)
            except Exception as exc:
                entry.last_error = exc
                if obs.metrics_on:
                    obs.registry.inc("server.restore_errors")
                continue
            restored += 1
        return restored

    # ------------------------------------------------------------------
    # Crash ladder (the server loop calls on_crash from its backstop)
    # ------------------------------------------------------------------

    def on_crash(self, session: Session, exc: BaseException) -> str:
        """Advance the ladder one rung; returns the entry's new state.

        Unsupervised sessions keep the bare PR 6 containment (the
        caller already parked ``last_error``); supervised ones climb
        contain → restart-with-backoff → sticky-dead.
        """
        entry = self._entries.get(session.id)
        if entry is None or entry.session is not session:
            return RUNNING
        entry.crashes += 1
        entry.last_error = exc
        if obs.metrics_on:
            obs.registry.inc("server.crashes")
        if entry.crashes >= self.policy.max_strikes:
            self._kill(entry)
        elif entry.crashes > self.policy.contain_strikes \
                and entry.build is not None:
            self._escalate(entry)
        return entry.state

    def _kill(self, entry: SupervisedEntry) -> None:
        """Sticky-dead: past ``max_strikes``, restarts stop buying time."""
        entry.state = DEAD
        self.checkpoint_now(entry)
        if entry.session_id in self.loop._sessions:
            self.loop.remove_session(entry.session_id, close=True)
        if obs.metrics_on:
            obs.registry.inc("server.sessions_dead")

    def checkpoint_now(self, entry: SupervisedEntry) -> None:
        """Best-effort crash-time checkpoint (documents are still data).

        A pump crash leaves the session's data objects intact, so the
        moment of escalation is also the last chance to snapshot edits
        made since the periodic tick — this is what turns "resume from
        the last checkpoint" into "zero document loss".  Failures fall
        back to the last periodic checkpoint, already counted.
        """
        state, entry.state = entry.state, RUNNING
        try:
            self.checkpoint(entry.session_id)
        finally:
            entry.state = state

    def _escalate(self, entry: SupervisedEntry) -> None:
        entry.state = RESTARTING
        self.checkpoint_now(entry)
        # Carry queued-but-unserved input across the restart; close()
        # would clear it with the rest of the session.
        pending = list(entry.session._inbox)
        if entry.session_id in self.loop._sessions:
            self.loop.remove_session(entry.session_id, close=True)
        delay = self.policy.restart_delay(entry.session_id, entry.restarts)
        if obs.metrics_on:
            obs.registry.inc("server.crash_escalations")
        self.loop.call_later(delay, lambda: self._restart(entry, pending))

    def _restart(self, entry: SupervisedEntry, pending) -> None:
        if entry.state != RESTARTING:
            return  # revived or killed while the backoff ran
        try:
            session = entry.build()
            if session.id != entry.session_id:
                raise ValueError(
                    f"restart factory built {session.id!r}, "
                    f"expected {entry.session_id!r}")
            entry.session = session
            self.loop.add_session(session, readmit=True)
            self._restore_documents(entry)
            for event in pending:
                session.submit(event)
        except Exception as exc:
            # A restart that cannot complete is a dead session, not an
            # exception storm inside the timer wheel.
            entry.last_error = exc
            entry.state = DEAD
            if entry.session_id in self.loop._sessions:
                self.loop.remove_session(entry.session_id, close=True)
            if obs.metrics_on:
                obs.registry.inc("server.restart_errors")
                obs.registry.inc("server.sessions_dead")
            return
        entry.state = RUNNING
        entry.slow_streak = 0
        entry.restarts += 1
        if obs.metrics_on:
            obs.registry.inc("server.restarts")

    def revive(self, session_id: str) -> Optional[Session]:
        """Manual reset of a sticky-dead session: rebuild and restore.

        The operator's lever, like ``View.reset_quarantine`` one layer
        down.  Clears the strike count (the ladder restarts from the
        bottom) and returns the fresh session, or ``None`` when the
        entry is unknown, alive, or has no factory.
        """
        entry = self._entries.get(session_id)
        if entry is None or entry.state != DEAD or entry.build is None:
            return None
        entry.crashes = 0
        entry.state = RESTARTING
        self._restart(entry, [])
        return entry.session if entry.state == RUNNING else None

    # ------------------------------------------------------------------
    # Watchdog (the server loop reports every supervised slice)
    # ------------------------------------------------------------------

    def note_slice(self, session: Session, elapsed_ns: int) -> None:
        """One pump finished in ``elapsed_ns``; suspend chronic hogs."""
        policy = self.policy
        if policy.watchdog_ns is None:
            return
        entry = self._entries.get(session.id)
        if entry is None or entry.session is not session \
                or entry.state != RUNNING:
            return
        if elapsed_ns <= policy.watchdog_ns:
            entry.slow_streak = 0
            return
        entry.slow_streak += 1
        if obs.metrics_on:
            obs.registry.inc("server.watchdog_slow")
        if entry.slow_streak < policy.watchdog_strikes:
            return
        entry.state = SUSPENDED
        entry.slow_streak = 0
        session.suspended = True
        if obs.metrics_on:
            obs.registry.inc("server.watchdog_suspended")
        self.loop.call_later(
            policy.suspend_cycles, lambda: self._resume(entry))

    def _resume(self, entry: SupervisedEntry) -> None:
        if entry.state != SUSPENDED:
            return
        entry.session.suspended = False
        entry.state = RUNNING
        # Ring the session's doorbell: input that arrived while it was
        # parked makes it ready again without a new wake of its own.
        wake = entry.session.im.wake
        if wake is not None:
            wake()
        if obs.metrics_on:
            obs.registry.inc("server.watchdog_resumed")

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, dict]:
        """Per-entry ladder state (merged into ``fleet_stats``)."""
        return {sid: entry.health()
                for sid, entry in self._entries.items()}

    def states(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self._entries.values():
            counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (f"<Supervisor entries={len(self._entries)} "
                f"states={self.states()}>")
