"""Tests for the telemetry subsystem and the seam fixes shipped with it.

Covers:

* the metrics registry and span tracer themselves;
* the delayed-update queue's ancestor-subsumption rule (regression);
* exhaustive observer delivery under exceptions (regression);
* overlapping-damage merging in the interaction manager (regression);
* re-entrant attach/detach during notification;
* view discard during an in-flight flush;
* behavioural parity with telemetry on vs off.
"""

import json

import pytest

from repro import obs
from repro.class_system import FunctionObserver, Observable
from repro.core import InteractionManager, View
from repro.core.update import UpdateQueue
from repro.graphics import Rect


@pytest.fixture
def telemetry():
    """Metrics + tracing on, empty, restored to previous state after."""
    was_metrics = obs.metrics_enabled()
    was_trace = obs.trace_enabled()
    obs.configure(metrics=True, trace=True, reset_data=True)
    yield obs
    obs.configure(metrics=was_metrics, trace=was_trace, reset_data=True)


# ---------------------------------------------------------------------------
# Registry and tracer
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_accumulate(self, telemetry):
        reg = obs.registry
        reg.inc("a.b")
        reg.inc("a.b", 4)
        reg.inc("a.c")
        assert reg.counter("a.b") == 5
        assert reg.counter("a.c") == 1
        assert reg.counter("missing") == 0
        assert reg.counters_matching("a.") == {"a.b": 5, "a.c": 1}

    def test_gauges_last_write_wins(self, telemetry):
        obs.registry.gauge("depth", 3)
        obs.registry.gauge("depth", 7)
        assert obs.registry.gauge_value("depth") == 7

    def test_timer_stats_and_percentiles(self, telemetry):
        reg = obs.registry
        for ns in [100, 200, 300, 400, 1000]:
            reg.observe_ns("t", ns)
        stat = reg.timer("t")
        assert stat.count == 5
        assert stat.total_ns == 2000
        assert stat.min_ns == 100 and stat.max_ns == 1000
        assert stat.percentile(0.50) == 300
        assert stat.percentile(0.95) == 400  # index floor of the window
        assert stat.percentile(1.0) == 1000

    def test_timer_reservoir_is_bounded(self, telemetry):
        from repro.obs.metrics import TIMER_RESERVOIR

        reg = obs.registry
        for i in range(TIMER_RESERVOIR * 2):
            reg.observe_ns("t", i)
        stat = reg.timer("t")
        assert stat.count == TIMER_RESERVOIR * 2      # aggregates exact
        assert len(stat._samples) == TIMER_RESERVOIR  # window bounded
        assert stat.percentile(0.0) == TIMER_RESERVOIR  # oldest retained

    def test_snapshot_and_reset(self, telemetry):
        obs.registry.inc("x")
        obs.registry.observe_ns("y", 10)
        snap = obs.registry.snapshot()
        assert snap["counters"] == {"x": 1}
        assert snap["timers"]["y"]["count"] == 1
        obs.registry.reset()
        assert obs.registry.snapshot()["counters"] == {}

    def test_render_text_and_json(self, telemetry):
        obs.registry.inc("update.enqueued", 3)
        text = obs.render_text()
        assert "update.enqueued" in text and "3" in text
        parsed = json.loads(obs.render_json())
        assert parsed["metrics"]["counters"]["update.enqueued"] == 3


class TestTracer:
    def test_span_nesting_records_parentage(self, telemetry):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = obs.tracer.spans()
        inner = next(s for s in spans if s.name == "inner")
        outer = next(s for s in spans if s.name == "outer")
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1
        assert outer.duration_ns >= inner.duration_ns

    def test_ring_buffer_is_bounded(self, telemetry):
        from repro.obs.trace import Tracer

        tracer = Tracer(capacity=8)
        for i in range(20):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 8
        assert tracer.spans()[0].name == "s12"  # oldest fell off

    def test_disabled_span_is_noop(self):
        obs.configure(trace=False)
        before = len(obs.tracer)
        with obs.span("ghost"):
            pass
        assert len(obs.tracer) == before


# ---------------------------------------------------------------------------
# Update queue: ancestor subsumption (satellite bugfix)
# ---------------------------------------------------------------------------


def _tree():
    parent, child, grandchild = View(), View(), View()
    parent.bounds = Rect(0, 0, 40, 20)
    parent.add_child(child, Rect(2, 2, 20, 10))
    child.add_child(grandchild, Rect(1, 1, 5, 5))
    return parent, child, grandchild


class TestAncestorSubsumption:
    def test_child_after_fully_damaged_parent_is_noop(self):
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent)          # None = the whole view
        queue.enqueue(child, Rect(0, 0, 3, 3))
        assert len(queue) == 1
        assert queue.subsumed_count == 1
        assert queue.pending_views() == [parent]

    def test_subsumption_spans_generations(self):
        parent, _, grandchild = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent)
        queue.enqueue(grandchild)
        assert len(queue) == 1
        assert queue.subsumed_count == 1

    def test_partial_parent_damage_does_not_subsume(self):
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent, Rect(0, 0, 3, 3))
        queue.enqueue(child)
        assert len(queue) == 2
        assert queue.subsumed_count == 0

    def test_coalescing_to_full_enables_subsumption(self):
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent, Rect(0, 0, 40, 10))
        queue.enqueue(parent, Rect(0, 10, 40, 10))  # union = full bounds
        queue.enqueue(child)
        assert len(queue) == 1
        assert queue.subsumed_count == 1

    def test_child_enqueued_first_still_drains(self):
        # No retroactive subsumption: order of arrival is preserved.
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(child)
        queue.enqueue(parent)
        assert len(queue) == 2

    def test_drain_clears_subsumption_state(self):
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent)
        queue.drain()
        queue.enqueue(child)
        assert len(queue) == 1
        assert queue.pending_views() == [child]

    def test_discard_clears_subsumption_state(self):
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent)
        queue.discard(parent)
        queue.enqueue(child)
        assert queue.pending_views() == [child]

    def test_subsumed_requests_counted_in_metrics(self, telemetry):
        parent, child, _ = _tree()
        queue = UpdateQueue()
        queue.enqueue(parent)
        queue.enqueue(child)
        assert obs.registry.counter("update.subsumed") == 1
        assert obs.registry.counter("update.enqueued") == 2


# ---------------------------------------------------------------------------
# Observable: exhaustive delivery (satellite bugfix)
# ---------------------------------------------------------------------------


class TestExhaustiveNotification:
    def test_all_observers_notified_despite_exception(self):
        subject = Observable()
        hits = []

        subject.add_observer(FunctionObserver(lambda c: hits.append("a")))

        def boom(change):
            hits.append("boom")
            raise RuntimeError("observer bug")

        subject.add_observer(FunctionObserver(boom))
        subject.add_observer(FunctionObserver(lambda c: hits.append("c")))

        with pytest.raises(RuntimeError, match="observer bug"):
            subject.changed()
        assert hits == ["a", "boom", "c"]  # nobody was starved

    def test_first_of_several_exceptions_is_reraised(self):
        subject = Observable()

        def raiser(message):
            def observer(change):
                raise ValueError(message)
            return FunctionObserver(observer)

        subject.add_observer(raiser("first"))
        subject.add_observer(raiser("second"))
        with pytest.raises(ValueError, match="first"):
            subject.changed()

    def test_pending_change_initialized_eagerly(self):
        subject = Observable()
        assert subject._pending_change is None
        assert "_pending_change" in vars(subject)

    def test_exception_drops_counted_in_metrics(self, telemetry):
        subject = Observable()
        subject.add_observer(
            FunctionObserver(lambda c: (_ for _ in ()).throw(RuntimeError()))
        )
        subject.add_observer(FunctionObserver(lambda c: None))
        with pytest.raises(RuntimeError):
            subject.changed()
        assert obs.registry.counter("notify.exceptions") == 1
        assert obs.registry.counter("notify.observers") == 2


class TestReentrantObservers:
    def test_observer_replaces_itself_during_notification(self):
        subject = Observable()
        hits = []
        replacement = FunctionObserver(lambda c: hits.append("new"))

        class SelfReplacing(FunctionObserver):
            def __init__(self):
                super().__init__(self._fire)

            def _fire(self, change):
                hits.append("old")
                subject.remove_observer(self)
                subject.add_observer(replacement)

        subject.add_observer(SelfReplacing())
        subject.changed()
        assert hits == ["old"]          # swap takes effect next time
        subject.changed()
        assert hits == ["old", "new"]

    def test_detach_during_notification_with_exhaustive_delivery(self):
        subject = Observable()
        hits = []
        late = FunctionObserver(lambda c: hits.append("late"))

        def detach_late_then_raise(change):
            subject.remove_observer(late)
            raise RuntimeError("mid-notify bug")

        subject.add_observer(FunctionObserver(detach_late_then_raise))
        subject.add_observer(late)
        with pytest.raises(RuntimeError):
            subject.changed()
        # The in-flight snapshot still delivered to `late`...
        assert hits == ["late"]
        # ...but the detach holds for the next notification.
        with pytest.raises(RuntimeError):
            subject.changed()
        assert hits == ["late"]

    def test_attach_during_notification_sees_future_changes(self, telemetry):
        subject = Observable()
        hits = []
        joiner = FunctionObserver(lambda c: hits.append("joiner"))
        subject.add_observer(
            FunctionObserver(lambda c: subject.add_observer(joiner))
        )
        subject.changed()
        assert hits == []
        subject.changed()
        assert hits == ["joiner"]
        assert obs.registry.counter("notify.notifications") == 2


# ---------------------------------------------------------------------------
# Interaction manager: overlapping-damage merging (satellite bugfix)
# ---------------------------------------------------------------------------


def _covered_cells(rects):
    cells = set()
    for rect in rects:
        for y in range(rect.top, rect.bottom):
            for x in range(rect.left, rect.right):
                cells.add((x, y))
    return cells


class TestDamageMerging:
    def _build(self, make_im):
        im = make_im(width=60, height=18)
        root = View()
        left, right = View(), View()
        root.add_child(left, Rect(0, 0, 10, 4))
        root.add_child(right, Rect(5, 0, 10, 4))  # overlaps `left`
        im.set_child(root)
        im.process_events()
        return im, left, right

    def test_overlapping_rects_repaint_once(self, make_im, telemetry):
        im, left, right = self._build(make_im)
        obs.reset()
        left.want_update()
        right.want_update()
        assert im.flush_updates() == 1  # one merged pass, not two
        assert obs.registry.counter("im.flush_merged") == 1
        assert obs.registry.counter("im.repaints") == 1

    def test_repainted_area_never_exceeds_union_area(self, make_im,
                                                     telemetry):
        im, left, right = self._build(make_im)
        obs.reset()
        left.want_update()
        right.want_update()
        im.flush_updates()
        union_area = len(_covered_cells(
            [Rect(0, 0, 10, 4), Rect(5, 0, 10, 4)]
        ))
        repainted = obs.registry.counter("im.repaint_area")
        assert repainted <= union_area
        # And strictly better than the old per-view repaint total:
        assert repainted < Rect(0, 0, 10, 4).area + Rect(5, 0, 10, 4).area

    def test_disjoint_rects_stay_separate(self, make_im, telemetry):
        im = make_im(width=60, height=18)
        root = View()
        a, b = View(), View()
        root.add_child(a, Rect(0, 0, 5, 3))
        root.add_child(b, Rect(20, 10, 5, 3))
        im.set_child(root)
        im.process_events()
        obs.reset()
        a.want_update()
        b.want_update()
        assert im.flush_updates() == 2
        assert obs.registry.counter("im.flush_merged") == 0

    def test_merge_damage_helper_chains_unions(self):
        merged = InteractionManager._merge_damage([
            Rect(0, 0, 4, 4),
            Rect(10, 0, 4, 4),
            Rect(3, 0, 8, 4),   # bridges the first two
        ])
        assert merged == [Rect(0, 0, 14, 4)]


class TestDiscardDuringFlush:
    def test_view_discarded_mid_flush_does_not_crash(self, make_im):
        im = make_im(width=40, height=10)
        root = View()

        class Saboteur(View):
            atk_register = False

            def __init__(self, victim_holder):
                super().__init__()
                self.victim_holder = victim_holder

            def draw(self, graphic):
                victim = self.victim_holder[0]
                if victim is not None and victim.parent is not None:
                    victim.parent.remove_child(victim)
                    self.victim_holder[0] = None

        holder = [None]
        saboteur = Saboteur(holder)
        victim = View()
        root.add_child(saboteur, Rect(0, 0, 10, 4))
        root.add_child(victim, Rect(20, 5, 10, 4))
        holder[0] = victim
        im.set_child(root)
        im.process_events()

        saboteur.want_update()
        victim.want_update()
        im.flush_updates()              # must not raise
        assert victim.parent is None
        assert im.updates.is_empty()
        im.flush_updates()              # victim gone; still stable
        assert victim not in root.children


# ---------------------------------------------------------------------------
# Parity: telemetry must never change toolkit behaviour
# ---------------------------------------------------------------------------


def _run_scenario():
    """A small but representative session; returns observable outcomes."""
    from repro.components import TextView
    from repro.components.text import TextData
    from repro.wm import AsciiWindowSystem

    ws = AsciiWindowSystem()
    im = InteractionManager(ws, width=40, height=8)
    data = TextData("")
    view = TextView(data)
    im.set_child(view)
    im.process_events()
    for char in "parity!":
        im.window.inject_key(char)
    im.process_events()
    data.insert(0, "x")
    data.notify_observers()
    im.flush_updates()
    return im.snapshot_lines(), data.text(), view.draw_count


class TestTelemetryParity:
    def test_behaviour_identical_on_and_off(self):
        was_metrics = obs.metrics_enabled()
        was_trace = obs.trace_enabled()
        try:
            obs.configure(metrics=False, trace=False)
            off = _run_scenario()
            obs.configure(metrics=True, trace=True, reset_data=True)
            on = _run_scenario()
            assert on == off
            # And telemetry actually recorded the instrumented seams.
            counters = obs.registry.snapshot()["counters"]
            assert counters["update.enqueued"] > 0
            assert counters["im.events"] > 0
            assert counters["notify.notifications"] > 0
            assert obs.registry.timer("im.dispatch_ns").count > 0
            assert len(obs.tracer) > 0
        finally:
            obs.configure(metrics=was_metrics, trace=was_trace,
                          reset_data=True)

    def test_off_path_records_nothing(self):
        obs.configure(metrics=False, trace=False, reset_data=True)
        _run_scenario()
        snap = obs.registry.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert len(obs.tracer) == 0
