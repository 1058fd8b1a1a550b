"""Tests for the interaction manager (paper section 3)."""

import pytest

from repro import obs
from repro.core import InteractionManager, View
from repro.core.keymap import Keymap
from repro.graphics import Point, Rect
from repro.wm.base import Cursor
from repro.wm.events import MouseAction


class Typist(View):
    """Records keys through its keymap."""

    atk_register = False

    def __init__(self):
        super().__init__()
        self.typed = []
        self.keymap.bind_printables(
            lambda view, key: self.typed.append(key.char)
        )


class TestEventLoop:
    def test_process_events_counts(self, make_im):
        im = make_im()
        im.set_child(View())
        im.window.inject_key("a")
        im.window.inject_key("b")
        assert im.process_events() == 2

    def test_process_events_limit(self, make_im):
        im = make_im()
        im.set_child(View())
        for _ in range(5):
            im.window.inject_key("x")
        assert im.process_events(limit=2) == 2
        assert im.window.pending_events() == 3


class TestMouseGrab:
    def test_drag_follows_accepting_view(self, make_im):
        im = make_im()
        root = View()
        im.set_child(root)

        class Grabby(View):
            atk_register = False

            def __init__(self):
                super().__init__()
                self.seen = []

            def handle_mouse(self, event):
                self.seen.append((event.action, tuple(event.point)))
                return True

        grabby = Grabby()
        root.add_child(grabby, Rect(10, 5, 10, 5))
        im.process_events()
        # Press inside; drag far outside the view: the grab holds.
        im.window.inject_mouse(MouseAction.DOWN, 12, 6)
        im.window.inject_mouse(MouseAction.DRAG, 50, 17)
        im.window.inject_mouse(MouseAction.UP, 50, 17)
        im.process_events()
        actions = [a for a, _ in grabby.seen]
        assert actions == [MouseAction.DOWN, MouseAction.DRAG, MouseAction.UP]
        # Drag coordinates are in the grab view's space even off-view.
        assert grabby.seen[1][1] == (40, 12)

    def test_grab_released_after_up(self, make_im):
        im = make_im()
        root = View()
        im.set_child(root)
        im.window.inject_mouse(MouseAction.DOWN, 1, 1)
        im.window.inject_mouse(MouseAction.UP, 1, 1)
        im.process_events()
        assert im._grab is None


class TestKeyboard:
    def test_focus_receives_keys(self, make_im):
        im = make_im()
        typist = Typist()
        im.set_child(typist)
        im.window.inject_keys("hi")
        im.process_events()
        assert typist.typed == ["h", "i"]

    def test_unhandled_keys_bubble_to_ancestors(self, make_im):
        im = make_im()
        parent = Typist()
        child = View()  # no bindings at all
        im.set_child(parent)
        parent.add_child(child, Rect(0, 0, 5, 5))
        im.set_focus(child)
        im.window.inject_keys("z")
        im.process_events()
        assert parent.typed == ["z"]

    def test_chord_prefix_resolves_across_events(self, make_im):
        im = make_im()
        view = View()
        fired = []
        view.keymap.bind_chord(("C-x", "C-s"), lambda v, k: fired.append("save"))
        im.set_child(view)
        im.window.inject_key("x", ctrl=True)
        im.window.inject_key("s", ctrl=True)
        im.process_events()
        assert fired == ["save"]

    def test_bad_chord_suffix_resets_pending(self, make_im):
        im = make_im()
        view = Typist()
        view.keymap.bind_chord(("C-x", "C-s"), lambda v, k: None)
        im.set_child(view)
        im.window.inject_key("x", ctrl=True)
        im.window.inject_key("q")       # not bound in the prefix map
        im.window.inject_key("a")       # back to normal typing
        im.process_events()
        assert view.typed == ["a"]

    def test_focus_change_clears_pending_prefix(self, make_im):
        im = make_im()
        view = Typist()
        view.keymap.bind_chord(("C-x", "C-s"), lambda v, k: None)
        other = Typist()
        im.set_child(view)
        view.add_child(other, Rect(0, 0, 5, 5))
        im.window.inject_key("x", ctrl=True)
        im.process_events()
        im.set_focus(other)
        im.window.inject_key("s", ctrl=True)
        im.process_events()
        assert im._pending_keymap is None

    def test_focus_hooks_fire(self, make_im):
        im = make_im()
        events = []

        class Hooked(View):
            atk_register = False

            def __init__(self, name):
                super().__init__()
                self.name = name

            def focus_gained(self):
                events.append(f"+{self.name}")

            def focus_lost(self):
                events.append(f"-{self.name}")

        a, b = Hooked("a"), Hooked("b")
        im.set_child(a)
        a.add_child(b, Rect(0, 0, 5, 5))
        im.set_focus(b)
        assert events == ["+a", "-a", "+b"]

    def test_ancestor_can_veto_focus(self, make_im):
        im = make_im()

        class Guardian(View):
            atk_register = False

            def allow_child_focus(self, child):
                return False

        root = Guardian()
        child = View()
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 5, 5))
        assert child.want_input_focus() is False
        assert im.focus is root


class TestMenus:
    def test_menu_set_merges_focus_chain(self, make_im):
        im = make_im()
        root = View()
        root.menu_card("File").add("Quit", lambda v, e: None)
        child = View()
        child.menu_card("Edit").add("Cut", lambda v, e: None)
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 5, 5))
        im.set_focus(child)
        menus = im.menu_set()
        assert set(menus.card_names()) == {"File", "Edit"}

    def test_child_shadows_parent_item(self, make_im):
        im = make_im()
        calls = []
        root = View()
        root.menu_card("File").add("Save", lambda v, e: calls.append("root"))
        child = View()
        child.menu_card("File").add("Save", lambda v, e: calls.append("child"))
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 5, 5))
        im.set_focus(child)
        im.menu_set().dispatch_event = None  # not used; dispatch via IM
        im.window.inject_menu("File", "Save")
        im.process_events()
        assert calls == ["child"]

    def test_menu_event_bubbles_to_parent(self, make_im):
        im = make_im()
        calls = []
        root = View()
        root.menu_card("File").add("Quit", lambda v, e: calls.append("quit"))
        child = View()
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 5, 5))
        im.set_focus(child)
        im.window.inject_menu("File", "Quit")
        im.process_events()
        assert calls == ["quit"]


class TestUpdates:
    def test_damage_is_coalesced_per_view(self, make_im):
        im = make_im()
        view = View()
        im.set_child(view)
        im.flush_updates()
        view.want_update(Rect(0, 0, 2, 2))
        view.want_update(Rect(5, 5, 2, 2))
        assert len(im.updates) == 1
        assert im.flush_updates() == 1

    def test_flush_repaints_only_damaged_region(self, make_im):
        im = make_im()

        class Painter(View):
            atk_register = False

            def draw(self, graphic):
                graphic.fill_rect(Rect(0, 0, self.width, self.height), 1)

        view = Painter()
        im.set_child(view)
        im.process_events()
        # Manually blank the window, then damage a small rect.
        im.window.surface.put(0, 0, "?")
        view.want_update(Rect(5, 5, 2, 2))
        im.flush_updates()
        # The cell outside the damage was not repainted.
        assert im.window.surface.char_at(0, 0) == "?"
        assert im.window.surface.char_at(5, 5) == "#"

    def test_expose_and_keystroke_repaint_once(self, make_im):
        """An expose is damage, not a repaint at dispatch: it merges
        with a keystroke's damage from the same drain into one pass."""

        class Echo(View):
            atk_register = False

            def handle_key(self, event):
                self.want_update(Rect(0, 0, 5, 1))
                return True

        was = obs.metrics_enabled()
        obs.configure(metrics=True, reset_data=True)
        try:
            im = make_im()
            im.set_child(Echo())
            im.process_events()
            obs.registry.reset()
            im.window.inject_expose()
            im.window.inject_key("a")
            im.process_events()
            assert obs.registry.counter("im.repaints") == 1
        finally:
            obs.configure(metrics=was, reset_data=True)

    def test_resize_relays_to_child_bounds(self, make_im):
        im = make_im()
        view = View()
        im.set_child(view)
        im.window.resize(33, 9)
        im.process_events()
        assert view.bounds == Rect(0, 0, 33, 9)

    def test_view_unlinked_clears_its_damage_and_focus(self, make_im):
        im = make_im()
        root = View()
        child = View()
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 5, 5))
        im.set_focus(child)
        child.want_update()
        root.remove_child(child)
        assert im.focus is root
        assert child not in im.updates.pending_views()


class _ClipRecorder(View):
    def __init__(self):
        super().__init__()
        self.clips = []

    def draw(self, graphic):
        self.clips.append(graphic.clip)


class TestRootClipAcrossPasses:
    def test_clip_restored_with_a_cached_root_graphic(self, make_im):
        """Two disjoint damage passes in one flush must each see their
        own clip, even on a backend that hands out one shared root
        drawable (the intersection in ``_repaint`` must not leak)."""
        im = make_im(width=60, height=18)
        root = View()
        left = _ClipRecorder()
        right = _ClipRecorder()
        im.set_child(root)
        root.add_child(left, Rect(0, 0, 10, 5))
        root.add_child(right, Rect(40, 10, 10, 5))
        im.process_events()

        window = im.window
        shared = window.graphic()
        base_clip = shared.clip
        window.graphic = lambda: shared  # simulate a cached drawable

        left.clips.clear()
        right.clips.clear()
        left.want_update()
        right.want_update()
        passes = im.flush_updates()
        assert passes == 2  # the damages are disjoint: no merging
        assert shared.clip == base_clip  # restored after the flush
        # Each pass painted its own region: neither draw saw an empty
        # clip (which is what a leaked first-pass clip would cause).
        assert len(left.clips) == 1 and not left.clips[0].is_empty()
        assert len(right.clips) == 1 and not right.clips[0].is_empty()

    def test_empty_damage_restores_clip_too(self, make_im):
        im = make_im(width=60, height=18)
        im.set_child(View())
        im.process_events()
        window = im.window
        shared = window.graphic()
        base_clip = shared.clip
        window.graphic = lambda: shared
        im._repaint(Rect(200, 200, 5, 5))  # off-window: empty clip
        assert shared.clip == base_clip


class TestCursorArbitration:
    def test_child_cursor_shows_through(self, make_im):
        im = make_im()
        root = View()
        child = View()
        child.cursor = Cursor("ibeam")
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 10, 10))
        im.window.inject_mouse(MouseAction.MOVE, 3, 3)
        im.process_events()
        assert im.window.cursor == Cursor("ibeam")

    def test_parent_override_beats_child(self, make_im):
        im = make_im()

        class Overrider(View):
            atk_register = False

            def cursor_for(self, point):
                return Cursor("wait")

        root = Overrider()
        child = View()
        child.cursor = Cursor("ibeam")
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 10, 10))
        im.window.inject_mouse(MouseAction.MOVE, 3, 3)
        im.process_events()
        assert im.window.cursor == Cursor("wait")


class TestTimers:
    def test_tick_delivers_to_subscribers(self, make_im):
        im = make_im()
        ticks = []

        class Clock(View):
            atk_register = False

            def handle_timer(self, event):
                ticks.append(event.tick)

        clock = Clock()
        im.set_child(clock)
        im.add_timer_subscriber(clock)
        im.tick(3)
        im.process_events()
        assert ticks == [1, 2, 3]

    def test_unsubscribe_stops_delivery(self, make_im):
        im = make_im()
        ticks = []

        class Clock(View):
            atk_register = False

            def handle_timer(self, event):
                ticks.append(event.tick)

        clock = Clock()
        im.set_child(clock)
        im.add_timer_subscriber(clock)
        im.remove_timer_subscriber(clock)
        im.tick()
        im.process_events()
        assert ticks == []


class TestHandlerFaultRegression:
    """A raising handler must not cost the user queued input or repaints.

    Regression for the seed behaviour where the first handler exception
    aborted ``process_events`` mid-queue: the remaining events were
    lost and ``flush_updates`` never ran, leaving posted damage
    unpainted until some later interaction.
    """

    def _build(self, make_im):
        from repro.graphics import Rect

        im = make_im()
        root = View()
        typist = Typist()

        class Exploding(View):
            atk_register = False

            def __init__(self):
                super().__init__()
                self.keymap.bind_printables(self._boom)

            def _boom(self, view, key):
                typist.want_update()
                raise RuntimeError("handler bug")

        class Painter(View):
            atk_register = False
            paints = 0

            def draw(self, graphic):
                type(self).paints += 1

        painter = Painter()
        exploding = Exploding()
        root.add_child(exploding, Rect(0, 0, 10, 5))
        root.add_child(painter, Rect(10, 0, 10, 5))
        im.set_child(root)
        im.set_focus(exploding)
        im.process_events()
        return im, exploding, painter, type(painter)

    def test_queue_drains_and_flush_runs_with_containment_off(self, make_im):
        from repro.core import faults

        im, exploding, painter, painter_cls = self._build(make_im)
        was = faults.enabled
        faults.configure(False)
        try:
            before = painter_cls.paints
            for char in "abc":
                im.window.inject_key(char)
            painter.want_update()
            with pytest.raises(RuntimeError, match="handler bug"):
                im.process_events()
            # Every queued event was consumed, not just the first.
            assert im.window.pending_events() == 0
            # The flush still happened: posted damage got painted.
            assert painter_cls.paints > before
        finally:
            faults.configure(was)

    def test_containment_on_quarantines_instead_of_raising(self, make_im):
        from repro.core import faults

        im, exploding, painter, painter_cls = self._build(make_im)
        was = faults.enabled
        faults.configure(True)
        try:
            for char in "abc":
                im.window.inject_key(char)
            im.process_events()  # must not raise
            assert im.window.pending_events() == 0
            assert exploding.quarantined is not None
            assert "handler bug" in exploding.quarantined.error
        finally:
            faults.configure(was)


class TestSetChildReplacement:
    """Replacing the IM child must unlink the whole outgoing subtree.

    Regression: ``set_child`` used to swap the pointer and nothing
    else — queued damage for the detached views stayed in the update
    queue, and stale grab/focus/timer registrations survived into the
    new tree.
    """

    def _old_tree(self, make_im):
        from repro.graphics import Rect

        im = make_im()
        root = View()
        leaf = View()
        deep = View()
        root.add_child(leaf, Rect(0, 0, 10, 5))
        leaf.add_child(deep, Rect(1, 1, 5, 3))
        im.set_child(root)
        im.process_events()
        return im, root, leaf, deep

    def test_detached_damage_is_discarded(self, make_im):
        im, root, leaf, deep = self._old_tree(make_im)
        leaf.want_update()
        deep.want_update()
        assert len(im.updates) > 0
        im.set_child(View())
        pending = im.updates.pending_views()
        assert leaf not in pending and deep not in pending
        assert root not in pending

    def test_detached_grab_focus_and_timers_die(self, make_im):
        from repro.graphics import Rect
        from repro.wm.events import MouseAction

        im = make_im()
        root = View()

        class Grabby(View):
            atk_register = False

            def handle_mouse(self, event):
                return True

        grabby = Grabby()
        root.add_child(grabby, Rect(0, 0, 20, 10))
        im.set_child(root)
        im.set_focus(grabby)
        im.add_timer_subscriber(grabby)
        im.window.inject_mouse(MouseAction.DOWN, 5, 5)
        im.process_events()
        assert im._grab is grabby
        replacement = View()
        im.set_child(replacement)
        assert im._grab is None
        assert grabby not in im._timer_subscribers
        assert im.focus is replacement
        assert root._im is None
        # Ticks now go nowhere near the detached subscriber.
        ticks = []
        grabby.handle_timer = lambda event: ticks.append(event)
        im.tick()
        im.process_events()
        assert ticks == []

    def test_reinstalling_same_child_is_a_noop_unlink(self, make_im):
        im, root, leaf, deep = self._old_tree(make_im)
        im.set_focus(leaf)
        im.set_child(root)
        # Same subtree: nothing was unlinked out from under it.
        assert root._im is im
        assert im.focus is root  # set_child refocuses the (same) child


class TestDrainErrorChaining:
    """A multi-failure drain raises one exception carrying the rest."""

    def _exploding_pair(self, make_im):
        from repro.graphics import Rect

        im = make_im()
        root = View()

        class Boom(View):
            atk_register = False

            def __init__(self, label):
                super().__init__()
                self.keymap.bind_printables(
                    lambda view, key, lab=label: (_ for _ in ()).throw(
                        RuntimeError(f"{lab}:{key.char}")
                    )
                )

        boom = Boom("boom")
        root.add_child(boom, Rect(0, 0, 10, 5))
        im.set_child(root)
        im.set_focus(boom)
        im.process_events()
        return im, boom

    def test_subsequent_errors_are_chained_not_discarded(self, make_im):
        from repro.core import faults

        im, boom = self._exploding_pair(make_im)
        was = faults.enabled
        faults.configure(False)
        try:
            im.window.inject_key("a")
            im.window.inject_key("b")
            im.window.inject_key("c")
            with pytest.raises(RuntimeError, match="boom:a") as excinfo:
                im.process_events()
            chain = []
            node = excinfo.value.__context__
            while node is not None:
                chain.append(str(node))
                node = node.__context__
            assert "boom:b" in chain and "boom:c" in chain
        finally:
            faults.configure(was)

    def test_surplus_errors_are_counted(self, make_im):
        from repro import obs
        from repro.core import faults

        im, boom = self._exploding_pair(make_im)
        was_faults = faults.enabled
        was_metrics = obs.metrics_enabled()
        faults.configure(False)
        obs.configure(metrics=True, reset_data=True)
        try:
            im.window.inject_key("a")
            im.window.inject_key("b")
            with pytest.raises(RuntimeError, match="boom:a"):
                im.process_events()
            assert obs.registry.counter("im.errors_dropped") == 1
        finally:
            faults.configure(was_faults)
            obs.configure(metrics=was_metrics, reset_data=True)

    def test_single_error_drain_is_unchained(self, make_im):
        from repro.core import faults

        im, boom = self._exploding_pair(make_im)
        was = faults.enabled
        faults.configure(False)
        try:
            im.window.inject_key("a")
            with pytest.raises(RuntimeError, match="boom:a") as excinfo:
                im.process_events()
            assert excinfo.value.__context__ is None
        finally:
            faults.configure(was)


class TestFocusTransitionSafety:
    """``set_focus`` must never leave a half-applied transfer."""

    def _views(self, make_im, lost_raises=False, gained_raises=False):
        from repro.graphics import Rect

        im = make_im()
        root = View()

        class Hooked(View):
            atk_register = False

            def __init__(self, raise_on_lost=False, raise_on_gained=False):
                super().__init__()
                self.raise_on_lost = raise_on_lost
                self.raise_on_gained = raise_on_gained
                self.lost = 0
                self.gained = 0

            def focus_lost(self):
                self.lost += 1
                if self.raise_on_lost:
                    raise RuntimeError("lost hook bug")

            def focus_gained(self):
                self.gained += 1
                if self.raise_on_gained:
                    raise RuntimeError("gained hook bug")

        old = Hooked(raise_on_lost=lost_raises)
        new = Hooked(raise_on_gained=gained_raises)
        root.add_child(old, Rect(0, 0, 10, 5))
        root.add_child(new, Rect(10, 0, 10, 5))
        im.set_child(root)
        im.set_focus(old)
        assert im.focus is old
        return im, old, new

    def test_raising_focus_lost_leaves_focus_unchanged(self, make_im):
        from repro.core import faults

        im, old, new = self._views(make_im, lost_raises=True)
        was = faults.enabled
        faults.configure(False)
        try:
            with pytest.raises(RuntimeError, match="lost hook bug"):
                im.set_focus(new)
            assert im.focus is old        # not half-transferred
            assert new.gained == 0        # never told it won focus
        finally:
            faults.configure(was)

    def test_raising_focus_gained_rolls_back_to_no_focus(self, make_im):
        from repro.core import faults

        im, old, new = self._views(make_im, gained_raises=True)
        was = faults.enabled
        faults.configure(False)
        try:
            with pytest.raises(RuntimeError, match="gained hook bug"):
                im.set_focus(new)
            # The old view relinquished cleanly; nobody claims a
            # keyboard whose focus_gained never completed.
            assert old.lost == 1
            assert im.focus is None
        finally:
            faults.configure(was)

    def test_contained_hooks_complete_the_transfer(self, make_im):
        from repro.core import faults

        im, old, new = self._views(
            make_im, lost_raises=True, gained_raises=True
        )
        was = faults.enabled
        faults.configure(True)
        try:
            im.set_focus(new)             # must not raise
            assert im.focus is new
            assert old.quarantined is not None
            assert new.quarantined is not None
        finally:
            faults.configure(was)
