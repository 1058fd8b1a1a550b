"""Tests for the multi-session server layer (``repro.server``).

Covers the scheduler's three contracts — bounded queues with
backpressure, fair round-robin service, and session-level fault
isolation — plus the timer wheel and the asyncio driver.  The
rendering-conformance side (a served session is byte-identical to the
standalone loop) lives in ``tests/conformance/test_server_matrix.py``.
"""

import asyncio

import pytest

from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.core import InteractionManager, View, faults
from repro.server import (
    DEFAULT_QUEUE_LIMIT,
    ServerLoop,
    Session,
    Supervisor,
    SupervisorPolicy,
    TimerWheel,
)
from repro.wm.ascii_ws import AsciiWindowSystem
from repro.wm.events import KeyEvent


def make_text_session(loop, ws, doc="", **kwargs):
    """A session whose whole tree is one focused TextView."""
    session = loop.add_session(window_system=ws, width=40, height=10,
                               **kwargs)
    view = TextView(TextData(doc))
    session.im.set_child(view)
    session.im.process_events()  # settle the initial paint
    return session, view


# ---------------------------------------------------------------------------
# Timer wheel
# ---------------------------------------------------------------------------

class TestTimerWheel:
    def test_fires_at_the_scheduled_tick(self):
        wheel = TimerWheel(slots=8)
        fired = []
        wheel.schedule(3, lambda: fired.append(wheel.now))
        assert wheel.advance(3) == 0
        assert wheel.advance(1) == 1
        assert fired == [4]

    def test_zero_delay_fires_on_next_tick_only(self):
        wheel = TimerWheel(slots=4)
        fired = []
        wheel.schedule(0, lambda: fired.append("a"))
        assert wheel.advance(1) == 1 and fired == ["a"]
        assert wheel.advance(4) == 0  # one-shot: never again

    def test_delay_longer_than_the_ring_carries_rounds(self):
        wheel = TimerWheel(slots=4)
        fired = []
        wheel.schedule(9, lambda: fired.append(wheel.now))
        assert wheel.advance(9) == 0
        assert wheel.advance(1) == 1
        assert fired == [10]

    def test_cancelled_timer_never_fires(self):
        wheel = TimerWheel(slots=8)
        fired = []
        handle = wheel.schedule(2, lambda: fired.append("x"))
        handle.cancel()
        assert wheel.advance(8) == 0
        assert fired == [] and len(wheel) == 0

    def test_periodic_interval_re_arms(self):
        wheel = TimerWheel(slots=8)
        fired = []
        handle = wheel.schedule(1, lambda: fired.append(wheel.now),
                                interval=3)
        wheel.advance(11)
        assert fired == [2, 5, 8, 11]
        handle.cancel()
        wheel.advance(8)
        assert fired == [2, 5, 8, 11]

    def test_callback_scheduling_zero_delay_does_not_loop(self):
        wheel = TimerWheel(slots=4)
        fired = []

        def reschedule():
            fired.append(wheel.now)
            if len(fired) < 3:
                wheel.schedule(0, reschedule)

        wheel.schedule(0, reschedule)
        assert wheel.advance(1) == 1  # one firing per tick, not a storm
        wheel.advance(2)
        assert fired == [1, 2, 3]

    def test_next_due_in(self):
        wheel = TimerWheel(slots=8)
        assert wheel.next_due_in() is None
        wheel.schedule(5, lambda: None)
        wheel.schedule(2, lambda: None)
        assert wheel.next_due_in() == 3  # delay 2 => third advance fires

    def test_cancelling_a_later_timer_while_firing(self):
        # Two timers due on the same tick; the first one's callback
        # cancels the second mid-slot.  The cancel must win even though
        # the slot list was already being walked.
        wheel = TimerWheel(slots=8)
        fired = []
        handles = {}

        def first():
            fired.append("first")
            handles["second"].cancel()

        wheel.schedule(2, first)
        handles["second"] = wheel.schedule(
            2, lambda: fired.append("second"))
        assert wheel.advance(3) == 1
        assert fired == ["first"]
        assert len(wheel) == 0

    def test_periodic_callback_cancelling_itself_stops_re_arm(self):
        wheel = TimerWheel(slots=4)
        fired = []
        handle = {}

        def tick():
            fired.append(wheel.now)
            if len(fired) == 2:
                handle["h"].cancel()

        handle["h"] = wheel.schedule(1, tick, interval=2)
        wheel.advance(12)
        assert fired == [2, 4]       # self-cancel from inside the firing
        assert len(wheel) == 0       # no ghost re-arm

    def test_periodic_callback_raising_stays_armed_and_is_counted(self):
        # A raising periodic callback must be contained (other timers
        # still fire), counted, and re-armed as if it had returned —
        # the supervisor's checkpoint cadence rides on this.
        wheel = TimerWheel(slots=4)
        fired = []

        def bad():
            fired.append(wheel.now)
            if len(fired) < 3:
                raise RuntimeError("checkpoint failed")

        other = []
        wheel.schedule(1, bad, interval=2)
        wheel.schedule(1, lambda: other.append(wheel.now), interval=2)
        wheel.advance(6)
        assert fired == [2, 4, 6]    # re-armed through two raises
        assert other == [2, 4, 6]    # neighbour timers unaffected
        assert wheel.errors == 2
        assert isinstance(wheel.last_error, RuntimeError)

    def test_one_shot_callback_raising_is_contained(self):
        wheel = TimerWheel(slots=4)

        def bad():
            raise ValueError("one bad shot")

        wheel.schedule(0, bad)
        assert wheel.advance(1) == 1  # fired (and contained)
        assert wheel.errors == 1
        assert len(wheel) == 0        # one-shot: not re-armed


# ---------------------------------------------------------------------------
# Session: bounded queue + backpressure
# ---------------------------------------------------------------------------

class TestSessionBackpressure:
    def test_queue_bound_is_enforced(self, ascii_ws):
        loop = ServerLoop()
        session, view = make_text_session(loop, ascii_ws, queue_limit=8)
        accepted = [session.submit_key("x") for _ in range(20)]
        assert accepted.count(True) == 8
        assert session.queue_depth() == 8
        assert session.stats.events_in == 8
        assert session.stats.events_dropped == 12

    def test_refused_then_drained_then_accepted(self, ascii_ws):
        loop = ServerLoop(slice_events=4)
        session, view = make_text_session(loop, ascii_ws, queue_limit=4)
        assert session.submit_text("abcd") == 4
        assert not session.submit_key("e")  # full: backpressure
        loop.run_until_idle()
        assert session.queue_depth() == 0
        assert session.submit_key("e")      # drained: accepted again
        loop.run_until_idle()
        assert view.data.text() == "abcde"

    def test_closed_session_refuses_input(self, ascii_ws):
        loop = ServerLoop()
        session, _ = make_text_session(loop, ascii_ws)
        session.close()
        assert not session.submit_key("x")
        assert not session.ready

    def test_default_limit_applies(self, ascii_ws):
        session = Session("s", window_system=ascii_ws)
        assert session.queue_limit == DEFAULT_QUEUE_LIMIT


# ---------------------------------------------------------------------------
# ServerLoop: fairness and scheduling
# ---------------------------------------------------------------------------

class TestFairness:
    def test_flood_cannot_starve_quiet_sessions(self, ascii_ws):
        """One session with a huge backlog, three with a word each: the
        quiet sessions finish in the handful of cycles their own input
        needs, not after the flood clears."""
        loop = ServerLoop(slice_events=4)
        flood, flood_view = make_text_session(loop, ascii_ws,
                                              queue_limit=1000)
        quiet = [make_text_session(loop, ascii_ws) for _ in range(3)]
        assert flood.submit_text("x" * 900) == 900
        for session, _ in quiet:
            assert session.submit_text("hello") == 5

        cycles = 0
        while any(s.ready for s, _ in quiet):
            loop.run_cycle()
            cycles += 1
            assert cycles < 10, "quiet sessions starved behind the flood"
        # 5 keys at 4 per slice = 2 cycles of service for the quiet set.
        assert cycles <= 3
        for session, view in quiet:
            assert view.data.text() == "hello"
            assert session.stats.events_processed == 5
        # The flood is still grinding along, one slice per cycle.
        assert flood.ready
        assert flood.stats.events_processed == cycles * 4
        loop.run_until_idle()
        assert flood.stats.events_processed == 900
        assert flood_view.data.text() == "x" * 900

    def test_no_event_loss_across_the_fleet(self, ascii_ws):
        loop = ServerLoop(slice_events=3)
        fleet = [make_text_session(loop, ascii_ws) for _ in range(8)]
        for index, (session, _) in enumerate(fleet):
            assert session.submit_text(f"s{index:02d} ok") == 6
        loop.run_until_idle()
        for index, (session, view) in enumerate(fleet):
            assert view.data.text() == f"s{index:02d} ok"
            assert session.stats.events_in == session.stats.events_processed
            assert session.stats.events_dropped == 0

    def test_per_cycle_service_is_bounded(self, ascii_ws):
        loop = ServerLoop(slice_events=2)
        session, _ = make_text_session(loop, ascii_ws, queue_limit=50)
        session.submit_text("abcdefghij")
        before = session.stats.events_processed
        loop.run_cycle()
        assert session.stats.events_processed - before <= 2

    def test_round_robin_head_rotates(self, ascii_ws):
        loop = ServerLoop(slice_events=1)
        served_first = []
        fleet = []

        class Recorder(View):
            atk_register = False

            def __init__(self, label):
                super().__init__()
                self.keymap.bind_printables(
                    lambda view, key: served_first.append(label)
                    if not served_first or served_first[-1] != label
                    else None
                )

        for label in "abc":
            session = loop.add_session(window_system=ascii_ws,
                                       width=20, height=6)
            session.im.set_child(Recorder(label))
            session.im.process_events()
            fleet.append(session)
        heads = []
        for _ in range(3):
            served_first.clear()
            for session in fleet:
                session.submit_key("x")
            loop.run_cycle()
            heads.append(served_first[0])
        # Rotation: a different session leads each cycle.
        assert heads == ["a", "b", "c"]

    def test_remove_session_mid_flight(self, ascii_ws):
        loop = ServerLoop()
        session, _ = make_text_session(loop, ascii_ws)
        other, other_view = make_text_session(loop, ascii_ws)
        session.submit_text("doomed")
        other.submit_text("alive")
        loop.remove_session(session.id)
        loop.run_until_idle()
        assert len(loop) == 1
        assert other_view.data.text() == "alive"
        assert session.closed


@pytest.fixture
def pumped(monkeypatch):
    """Every session pumped while the test runs, in order."""
    calls = []
    pump = Session.pump

    def spy(self, budget=None):
        calls.append(self)
        return pump(self, budget)

    monkeypatch.setattr(Session, "pump", spy)
    return calls


class TestReadyQueue:
    """Every way a session becomes ready rings its doorbell, so the
    next cycle serves it without the loop ever walking idle sessions."""

    @staticmethod
    def settled(loop, ascii_ws, **kwargs):
        session, view = make_text_session(loop, ascii_ws, **kwargs)
        loop.run_until_idle()
        assert loop.ready_sessions() == []
        return session, view

    def test_submit_is_served_next_cycle(self, ascii_ws):
        loop = ServerLoop()
        session, view = self.settled(loop, ascii_ws)
        session.submit_key("a")
        assert loop.ready_sessions() == [session]
        loop.run_cycle()
        assert view.data.text() == "a"
        assert loop.ready_sessions() == []

    def test_direct_window_post_is_served_next_cycle(self, ascii_ws):
        loop = ServerLoop()
        session, view = self.settled(loop, ascii_ws)
        session.im.window.post_event(KeyEvent("z"))
        loop.run_cycle()
        assert view.data.text() == "z"

    def test_scheduled_tick_is_served_in_its_cycle(self, ascii_ws):
        loop = ServerLoop()
        session, view = self.settled(loop, ascii_ws)
        ticks = []
        view.handle_timer = lambda event: ticks.append(event.tick)
        session.im.add_timer_subscriber(view)
        loop.schedule_tick(session, every=3)
        loop.run_cycle()
        loop.run_cycle()
        assert ticks == [] and session.stats.slices == 0
        loop.run_cycle()
        assert ticks == [1] and session.stats.slices == 1

    @pytest.mark.parametrize("reader_after_writer", [True, False])
    def test_shared_text_edit_wakes_the_other_session(
            self, ascii_ws, reader_after_writer):
        loop = ServerLoop()
        data = TextData("shared line\n")
        first, second = (
            loop.add_session(window_system=ascii_ws, width=40, height=10)
            for _ in range(2))
        writer, reader = ((first, second) if reader_after_writer
                          else (second, first))
        writer.im.set_child(TextView(data))
        reader.im.set_child(TextView(data))
        loop.run_until_idle()
        # With two sessions, odd cycles start at the first admitted one.
        if loop.cycles % 2:
            loop.run_cycle()
        slices = reader.stats.slices
        writer.submit_text("typed ")
        loop.run_cycle()  # the writer's slice damages the reader's view
        if reader_after_writer:
            # Its turn is still to come: served in the same cycle, as a
            # pass over the whole fleet would serve it.
            assert reader.stats.slices == slices + 1
        else:
            assert reader.stats.slices == slices
            assert loop.ready_sessions() == [reader]
            loop.run_cycle()
            assert reader.stats.slices == slices + 1
        assert loop.ready_sessions() == []
        fresh = InteractionManager(ascii_ws, width=40, height=10)
        fresh.set_child(TextView(data))
        fresh.process_events()
        assert reader.im.snapshot_lines() == fresh.snapshot_lines()
        assert "typed shared line" in reader.im.snapshot_lines()[0]

    def test_watchdog_resume_is_served_in_its_cycle(self, ascii_ws):
        loop = ServerLoop()
        # watchdog_ns=0: every real slice is "over deadline".
        sup = Supervisor(loop, policy=SupervisorPolicy(
            watchdog_ns=0, watchdog_strikes=1, suspend_cycles=3))
        session, view = self.settled(loop, ascii_ws)
        sup.supervise(session)
        session.submit_key("a")
        loop.run_cycle()
        assert session.suspended
        session.submit_text("bc")
        slices = session.stats.slices
        for _ in range(3):
            loop.run_cycle()
        assert session.stats.slices == slices  # parked: never pumped
        loop.run_cycle()  # the resume fires at the head of this cycle
        assert session.stats.slices == slices + 1
        assert view.data.text() == "abc"

    def test_supervisor_restart_is_served_in_its_cycle(self, ascii_ws):
        loop = ServerLoop()
        sup = Supervisor(loop, policy=SupervisorPolicy(
            contain_strikes=0, backoff_base=1, jitter_span=0))
        session, _ = self.settled(loop, ascii_ws, session_id="r")

        def build():
            fresh = Session("r", window_system=ascii_ws, width=40,
                            height=10)
            fresh.im.set_child(TextView(TextData("")))
            return fresh

        entry = sup.supervise(session, build=build)
        sup.on_crash(session, RuntimeError("boom"))
        assert loop.ready_sessions() == [] and entry.state == "restarting"
        loop.run_cycle()  # backoff
        loop.run_cycle()  # the restart fires at the head of this cycle
        assert entry.state == "running"
        # The rebuilt session arrives with its first paint pending and
        # no input: admission alone must queue it.
        assert entry.session.stats.slices == 1
        assert not entry.session.ready

    def test_suspended_and_closed_sessions_are_never_pumped(
            self, ascii_ws, pumped):
        loop = ServerLoop()
        parked, _ = self.settled(loop, ascii_ws)
        closed, _ = self.settled(loop, ascii_ws)
        parked.suspended = True
        parked.submit_text("ab")
        closed.im.window.post_event(KeyEvent("x"))
        closed.close()
        closed.im.window.post_event(KeyEvent("y"))
        for _ in range(4):
            loop.run_cycle()
        assert pumped == []
        assert loop.ready_sessions() == []

    @pytest.mark.parametrize("count", [1000, 10000])
    def test_idle_cycle_probes_no_session(self, ascii_ws, monkeypatch,
                                          pumped, count):
        """Cycle cost is the ready set's, not the fleet's: an idle cycle
        over N small sessions asks none of them whether it is ready."""
        loop = ServerLoop()
        for _ in range(count):
            loop.add_session(window_system=ascii_ws, width=20, height=6)
        probes = []
        ready = Session.ready.fget
        monkeypatch.setattr(Session, "ready", property(
            lambda self: probes.append(self) or ready(self)))
        for _ in range(3):
            assert loop.run_cycle() == 0
        assert loop.run_until_idle() == 0
        assert probes == [] and pumped == []
        assert loop.queued_events() == 0
        loop.close()


class TestTimersAndAsync:
    def test_schedule_tick_drives_timer_subscribers(self, ascii_ws):
        loop = ServerLoop()
        session, view = make_text_session(loop, ascii_ws)
        ticks = []
        view.handle_timer = lambda event: ticks.append(event.tick)
        session.im.add_timer_subscriber(view)
        loop.schedule_tick(session, every=2)
        for _ in range(6):
            loop.run_cycle()
        assert len(ticks) == 3  # cycles 2, 4, 6

    def test_call_later_counts_cycles(self, ascii_ws):
        loop = ServerLoop()
        fired = []
        loop.call_later(3, lambda: fired.append(loop.cycles))
        for _ in range(5):
            loop.run_cycle()
        assert fired == [4]

    def test_asyncio_producers_interleave_with_scheduling(self, ascii_ws):
        """Feeders submitting from asyncio tasks share the loop with the
        scheduler: everything they type lands, rate-limited through the
        bounded queues, with no event loss."""
        loop = ServerLoop(slice_events=2)
        fleet = [make_text_session(loop, ascii_ws, queue_limit=4)
                 for _ in range(4)]
        message = "interleaved typing"

        async def feed(session):
            for char in message:
                while not session.submit_key(char):
                    await asyncio.sleep(0)  # backpressure: wait a cycle

        async def main():
            feeders = [asyncio.ensure_future(feed(session))
                       for session, _ in fleet]
            handled = await loop.run(idle_cycles=4)
            await asyncio.gather(*feeders)
            # Anything submitted in the feeders' final turns.
            handled += loop.run_until_idle()
            return handled

        handled = asyncio.run(main())
        assert handled == len(message) * len(fleet)
        for session, view in fleet:
            assert view.data.text() == message
            # Refusals were retried, never lost: every key landed.
            assert session.stats.events_processed == len(message)


# ---------------------------------------------------------------------------
# Isolation: one broken session never stalls another
# ---------------------------------------------------------------------------

class BrokenDraw(View):
    """A view whose render always raises (until told to heal)."""

    atk_register = False

    def __init__(self):
        super().__init__()
        self.broken = True

    def draw(self, graphic):
        if self.broken:
            raise RuntimeError("broken session view")


class TestIsolation:
    def test_quarantined_view_in_one_session_stalls_nobody(self, ascii_ws):
        was = faults.enabled
        faults.configure(True)
        try:
            loop = ServerLoop(slice_events=4)
            sick = loop.add_session(window_system=ascii_ws,
                                    width=30, height=8)
            broken = BrokenDraw()
            sick.im.set_child(broken)
            sick.im.process_events()
            assert broken.quarantined is not None
            healthy, view = make_text_session(loop, ascii_ws)
            sick.submit_text("ignored keys")
            healthy.submit_text("still typing")
            loop.run_until_idle(max_cycles=50)
            assert view.data.text() == "still typing"
            assert healthy.stats.errors == 0
            assert sick.stats.events_processed == len("ignored keys")
            # The sick session is quarantined, not wedged: heal + expose.
            broken.broken = False
            broken.reset_quarantine()
            loop.run_until_idle(max_cycles=50)
            assert broken.quarantined is None
        finally:
            faults.configure(was)

    def test_session_boundary_contains_uncontained_errors(self, ascii_ws):
        """With quarantine off, a raising handler escapes the IM — the
        server loop contains it at the session boundary and keeps
        serving the rest of the fleet."""
        was = faults.enabled
        faults.configure(False)
        try:
            loop = ServerLoop(slice_events=4)
            bad = loop.add_session(window_system=ascii_ws,
                                   width=30, height=8)

            class Thrower(View):
                atk_register = False

                def __init__(self):
                    super().__init__()
                    self.keymap.bind_printables(self._boom)

                def _boom(self, view, key):
                    raise RuntimeError("uncontained handler")

            bad.im.set_child(Thrower())
            bad.im.process_events()
            good, view = make_text_session(loop, ascii_ws)
            bad.submit_text("xyz")
            good.submit_text("fine")
            loop.run_until_idle(max_cycles=50)   # must not raise
            assert view.data.text() == "fine"
            assert bad.stats.errors >= 1
            assert isinstance(bad.last_error, RuntimeError)
            assert good.stats.errors == 0
        finally:
            faults.configure(was)


class TestChaosFleet:
    def test_injected_faults_never_cross_sessions(self, ascii_ws):
        """The ``ANDREW_FAULTS`` arm at fleet scale: seeded injection
        over every *view-level* seam while eight sessions type.  Faults
        quarantine views inside their own session; every session still
        processes its entire input stream, and the fleet heals once
        injection stops.  (The ``server.pump`` seam is session-fatal by
        design — the supervision kill-storm tests own that one.)"""
        from repro import obs
        from repro.testing import faultinject

        was_faults = faults.enabled
        was_metrics = obs.metrics_enabled()
        faults.configure(True)
        obs.configure(metrics=True, reset_data=True)
        try:
            loop = ServerLoop(slice_events=4)
            fleet = [make_text_session(loop, ascii_ws, doc="seed text\n")
                     for _ in range(8)]
            faultinject.configure(20260807, 0.05, seams=(
                "view.draw", "wm.device", "observer.notify",
                "datastream.read"))
            try:
                for index, (session, _) in enumerate(fleet):
                    assert session.submit_text(
                        f"chaos session {index:02d}"
                    ) == 16
                loop.run_until_idle(max_cycles=400)
            finally:
                faultinject.configure(None)
            injected = obs.registry.counter("faults.injected")
            assert injected > 0, "chaos arm injected nothing"
            for session, _ in fleet:
                # Conservation per session: accepted == processed.
                assert session.stats.events_in == (
                    session.stats.events_processed
                ), session.id
                # Nothing escaped a session's drain (quarantine was on).
                assert session.stats.errors == 0, session.last_error
            # Injection off: the fleet heals on redraw (sticky
            # quarantines need the explicit reset, as in the chaos
            # conformance matrix).
            for session, _ in fleet:
                root = session.im.child
                if root.quarantined is not None and root.quarantined.sticky:
                    root.reset_quarantine()
            for _ in range(12):
                sick = [s for s, _ in fleet
                        if s.im.child.quarantined is not None]
                if not sick:
                    break
                for session in sick:
                    session.im.window.inject_expose()
                loop.run_until_idle(max_cycles=100)
            assert not any(
                session.im.child.quarantined is not None
                for session, _ in fleet
            ), "a session never recovered after injection stopped"
        finally:
            faults.configure(was_faults)
            obs.configure(metrics=was_metrics, reset_data=True)
