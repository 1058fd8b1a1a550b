"""The per-view backing-store compositor (perf PR 3).

Covers:

* pixel-identity: compositor on vs off under randomized edit/scroll/
  expose/divider sequences, on both backends (the tentpole's proof);
* the blit fast path itself (cache miss, then hit; counters);
* the global ``ANDREW_COMPOSITOR`` switch and the budget env knob
  (the switch's env parsing is in ``tests/test_config.py``);
* ``OffscreenWindow.copy_to`` clipping on both backends (regression);
* root-drawable clip restoration between merged-damage passes of one
  ``flush_updates`` (regression);
* backing-store invalidation on ``BackendWindow.resize`` (the pool
  flush that forces a live redraw);
* the byte-budget LRU pool: eviction, reuse, oversized refusal;
* printing stays live (``print_to`` never reads a stale cache).
"""

import pytest

from tests.randutil import describe_seed, seeded_rng

from repro import obs
from repro.core import InteractionManager, View
from repro.core import compositor
from repro.graphics import Rect
from repro.wm import base as wm_base
from repro.wm.ascii_ws import AsciiWindowSystem
from repro.wm.raster_ws import RasterWindowSystem


@pytest.fixture
def compositor_on():
    """Compositor enabled for one test, previous state restored after."""
    was = compositor.enabled
    compositor.configure(True)
    yield
    compositor.configure(was)


def _fingerprint(window):
    """Every pixel/cell and attribute of a backend window's surface."""
    surface = getattr(window, "surface", None)
    if surface is not None:  # ascii: chars + inverse + bold
        return (
            tuple(surface._chars),
            bytes(surface._inverse),
            bytes(surface._bold),
        )
    return bytes(window.framebuffer._bits)  # raster: the bit plane


class _Marker(View):
    """Leaf that paints a repeated marker character (cache probe)."""

    def __init__(self, char="A", width=5):
        super().__init__()
        self.char = char
        self._chars = width

    def draw(self, graphic):
        graphic.draw_string(0, 0, self.char * self._chars)


# ---------------------------------------------------------------------------
# The blit fast path
# ---------------------------------------------------------------------------


class TestBlitPath:
    def test_miss_then_hit_and_counters(self, make_im, compositor_on):
        was = obs.metrics_enabled()
        obs.configure(metrics=True, reset_data=True)
        try:
            im = make_im(width=40, height=8)
            view = _Marker("A")
            view.set_backing_store(True)
            im.set_child(view)
            im.process_events()  # first paint: a miss renders the cache
            counters = obs.registry.snapshot()["counters"]
            assert counters["view.cache_misses"] >= 1
            assert counters.get("view.cache_hits", 0) == 0
            assert counters["wm.blits"] >= 1
            before = _fingerprint(im.window)
            draws = view.draw_count
            im.window.inject_expose()
            im.process_events()  # clean subtree: satisfied by one blit
            counters = obs.registry.snapshot()["counters"]
            assert counters["view.cache_hits"] == 1
            assert counters["im.repaint_area_saved"] > 0
            assert view.draw_count == draws  # no live redraw happened
            assert _fingerprint(im.window) == before
        finally:
            obs.configure(metrics=was, reset_data=True)

    def test_damage_invalidates_ancestor_chain(self, make_im, compositor_on):
        im = make_im(width=40, height=8)
        root = View()
        inner = _Marker("A")
        inner.set_backing_store(True)
        root.backing_store = False
        im.set_child(root)
        root.add_child(inner, Rect(0, 0, 10, 2))
        im.process_events()
        assert inner._backing_valid
        inner.want_update()
        assert not inner._backing_valid
        im.process_events()
        assert inner._backing_valid  # re-rendered into the cache

    def test_switch_off_is_inert(self, make_im):
        compositor.configure(False)
        im = make_im(width=40, height=8)
        view = _Marker("A")
        view.set_backing_store(True)
        im.set_child(view)
        im.process_events()
        assert view._backing is None
        assert len(im.window_system.surfaces) == 0
        assert "AAAAA" in im.window.snapshot()

    def test_opt_out_releases_surface(self, make_im, compositor_on):
        im = make_im(width=40, height=8)
        view = _Marker("A")
        view.set_backing_store(True)
        im.set_child(view)
        im.process_events()
        pool = im.window_system.surfaces
        assert pool.get(view) is not None
        view.set_backing_store(False)
        assert pool.get(view) is None
        assert view._backing is None

    def test_unlink_releases_surface(self, make_im, compositor_on):
        im = make_im(width=40, height=8)
        root = View()
        child = _Marker("A")
        child.set_backing_store(True)
        im.set_child(root)
        root.add_child(child, Rect(0, 0, 10, 2))
        im.process_events()
        pool = im.window_system.surfaces
        assert pool.get(child) is not None
        root.remove_child(child)
        assert pool.get(child) is None

    def test_print_to_never_reads_the_cache(self, make_im, compositor_on):
        im = make_im(width=40, height=8)
        view = _Marker("A")
        view.set_backing_store(True)
        im.set_child(view)
        im.process_events()
        view.char = "B"  # silent mutation: cache still says "A"
        printer = im.window_system.create_offscreen(40, 8)
        view.print_to(printer.graphic())
        assert "BBBBB" in "\n".join(printer.surface.lines())

    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.setenv(wm_base.BUDGET_ENV, "1234")
        assert wm_base._env_budget() == 1234
        monkeypatch.setenv(wm_base.BUDGET_ENV, "junk")
        assert wm_base._env_budget() == wm_base.DEFAULT_SURFACE_BUDGET


# ---------------------------------------------------------------------------
# Satellite: copy_to must respect the target's clip (both backends)
# ---------------------------------------------------------------------------


class TestClippedBlit:
    def test_ascii_copy_to_respects_clip(self, ascii_ws):
        off = ascii_ws.create_offscreen(4, 3)
        graphic = off.graphic()
        for y in range(3):
            graphic.draw_string(0, y, "XXXX")
        window = ascii_ws.create_window("t", 10, 5)
        target = window.graphic()
        target.clip = Rect(1, 1, 2, 2)
        off.copy_to(target, 0, 0)
        for y in range(5):
            for x in range(10):
                inside = 1 <= x < 3 and 1 <= y < 3
                assert (window.surface.char_at(x, y) == "X") is inside

    def test_ascii_copy_is_faithful(self, ascii_ws):
        """Copy semantics: chars, inverse and bold all transfer."""
        off = ascii_ws.create_offscreen(3, 1)
        off.surface.put(0, 0, "a", inverse=1, bold=0)
        off.surface.put(1, 0, " ", inverse=0, bold=0)
        off.surface.put(2, 0, "c", inverse=0, bold=1)
        window = ascii_ws.create_window("t", 5, 2)
        window.graphic().fill_rect(Rect(0, 0, 5, 2), 1)  # pre-ink
        off.copy_to(window.graphic(), 1, 0)
        surface = window.surface
        assert surface.char_at(1, 0) == "a" and surface.inverse_at(1, 0)
        assert surface.char_at(2, 0) == " "  # background copied over ink
        assert not surface.inverse_at(2, 0)
        assert surface.char_at(3, 0) == "c" and surface.bold_at(3, 0)

    def test_raster_copy_to_respects_clip(self, raster_ws):
        off = raster_ws.create_offscreen(4, 4)
        off.bitmap.fill_rect(Rect(0, 0, 4, 4), 1)
        window = raster_ws.create_window("t", 8, 8)
        target = window.graphic()
        target.clip = Rect(2, 2, 2, 2)
        off.copy_to(target, 1, 1)
        fb = window.framebuffer
        for y in range(8):
            for x in range(8):
                inside = 2 <= x < 4 and 2 <= y < 4
                assert fb.get(x, y) == (1 if inside else 0)

    def test_raster_copy_clears_background(self, raster_ws):
        """Copy semantics: the surface's 0 pixels land too (not OR)."""
        off = raster_ws.create_offscreen(4, 4)  # all zero
        window = raster_ws.create_window("t", 8, 8)
        window.framebuffer.fill_rect(Rect(0, 0, 8, 8), 1)
        off.copy_to(window.graphic(), 2, 2)
        fb = window.framebuffer
        for y in range(8):
            for x in range(8):
                inside = 2 <= x < 6 and 2 <= y < 6
                assert fb.get(x, y) == (0 if inside else 1)


# ---------------------------------------------------------------------------
# Satellite: root clip restored between merged-damage passes
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Satellite: window resize invalidates every backing store
# ---------------------------------------------------------------------------


class TestResizeInvalidation:
    def test_resize_then_expose_repaints_live(self, make_im, compositor_on):
        im = make_im(width=30, height=6)
        root = View()
        marker = _Marker("A")
        marker.set_backing_store(True)
        im.set_child(root)
        root.add_child(marker, Rect(0, 0, 10, 2))
        im.process_events()
        assert "AAAAA" in im.window.snapshot()

        # A silent mutation (no damage posted): the cache is stale but
        # *valid*, so a plain expose still blits the old image — that
        # is the opt-in contract this test arms itself with.
        marker.char = "B"
        im.window.inject_expose()
        im.process_events()
        assert "AAAAA" in im.window.snapshot()

        # Resizing the backend window flushes the offscreen pool, so
        # the repaint must come from live draw code.
        im.window.resize(32, 6)
        im.process_events()
        assert "BBBBB" in im.window.snapshot()
        assert "AAAAA" not in im.window.snapshot()

    def test_resize_flushes_the_pool(self, make_im, compositor_on):
        im = make_im(width=30, height=6)
        view = _Marker("A")
        view.set_backing_store(True)
        im.set_child(view)
        im.process_events()
        pool = im.window_system.surfaces
        assert len(pool) == 1
        im.window.resize(40, 8)
        assert len(pool) == 0 and pool.bytes_used == 0


# ---------------------------------------------------------------------------
# The byte-budget LRU pool
# ---------------------------------------------------------------------------


class TestSurfacePool:
    def test_budget_evicts_least_recently_used(self, make_im, compositor_on):
        im = make_im(width=60, height=18)
        pool = im.window_system.surfaces
        root = View()
        im.set_child(root)
        markers = []
        for i in range(4):
            marker = _Marker("ABCD"[i])
            marker.set_backing_store(True)
            root.add_child(marker, Rect(0, i * 4, 10, 3))
            markers.append(marker)
        # Each ascii surface costs 10*3*3 = 90 bytes; two fit.
        pool.budget = 200
        im.process_events()
        assert pool.bytes_used <= pool.budget
        assert len(pool) < 4
        snapshot = im.window.snapshot()
        for char in "ABCD":  # eviction never corrupts the pixels
            assert char * 5 in snapshot

    def test_oversized_surface_is_refused(self, make_im, compositor_on):
        im = make_im(width=60, height=18)
        pool = im.window_system.surfaces
        pool.budget = 10  # smaller than any surface here
        view = _Marker("A")
        view.set_backing_store(True)
        im.set_child(view)
        im.process_events()
        assert len(pool) == 0
        assert view._backing is None  # fell back to live drawing
        assert "AAAAA" in im.window.snapshot()

    def test_acquire_reuses_and_resizes(self, ascii_ws):
        pool = ascii_ws.surfaces

        class Owner:
            pass

        owner = Owner()
        first = pool.acquire(owner, 10, 4)
        assert pool.bytes_used == 10 * 4 * 3
        second = pool.acquire(owner, 6, 2)
        assert second is first  # same surface, resized in place
        assert (second.width, second.height) == (6, 2)
        assert len(pool) == 1 and pool.bytes_used == 6 * 2 * 3
        pool.release(owner)
        assert len(pool) == 0 and pool.bytes_used == 0

    def test_eviction_notifies_owner(self, ascii_ws):
        pool = ascii_ws.surfaces
        pool.budget = 100
        evicted = []

        class Owner:
            def _backing_evicted(self):
                evicted.append(self)

        first, second = Owner(), Owner()
        pool.acquire(first, 10, 3)   # 90 bytes
        pool.acquire(second, 10, 3)  # over budget: first goes
        assert evicted == [first]
        assert pool.get(first) is None and pool.get(second) is not None


# ---------------------------------------------------------------------------
# Pixel identity: randomized sequences, compositor on vs off
# ---------------------------------------------------------------------------


def _build_app(window_system, width, height, opt_in):
    """Text | (table / drawing) split with every pane a candidate."""
    from repro.components.drawing.drawdata import DrawingData
    from repro.components.drawing.drawview import DrawView
    from repro.components.split import SplitView
    from repro.components.table.tabledata import TableData
    from repro.components.table.tableview import TableView
    from repro.components.text.textdata import TextData
    from repro.components.text.textview import TextView

    im = InteractionManager(window_system, width=width, height=height)
    text_data = TextData("\n".join(f"line {i}" for i in range(30)))
    text_view = TextView(text_data)
    table_data = TableData(6, 3)
    table_view = TableView(table_data)
    draw_data = DrawingData()
    draw_view = DrawView(draw_data)
    split = SplitView(text_view,
                      SplitView(table_view, draw_view, vertical=False),
                      vertical=True)
    if opt_in:
        for pane in (text_view, table_view, draw_view):
            pane.set_backing_store(True)
    im.set_child(split)
    im.set_focus(text_view)
    im.process_events()
    return {
        "im": im,
        "window": im.window,
        "text_data": text_data,
        "text_view": text_view,
        "table_data": table_data,
        "table_view": table_view,
        "draw_data": draw_data,
        "draw_view": draw_view,
        "split": split,
    }


def _random_ops(rng, count, width, height):
    ops = []
    for _ in range(count):
        kind = rng.choice(
            ["key", "key", "scroll_text", "scroll_table", "cell",
             "shape", "expose_full", "expose_rect", "ratio"]
        )
        if kind == "key":
            ops.append(("key", rng.choice("abcdefgh XYZ")))
        elif kind == "scroll_text":
            ops.append(("scroll_text", rng.randrange(0, 20)))
        elif kind == "scroll_table":
            ops.append(("scroll_table", rng.randrange(0, 4)))
        elif kind == "cell":
            ops.append(("cell", rng.randrange(6), rng.randrange(3),
                        rng.randrange(100)))
        elif kind == "shape":
            ops.append(("shape", rng.randrange(0, 10), rng.randrange(0, 6),
                        rng.randrange(2, 6), rng.randrange(2, 4)))
        elif kind == "expose_full":
            ops.append(("expose_full",))
        elif kind == "expose_rect":
            x = rng.randrange(0, max(1, width - 4))
            y = rng.randrange(0, max(1, height - 2))
            ops.append(("expose_rect", x, y, rng.randrange(3, width // 2),
                        rng.randrange(2, max(3, height // 2))))
        elif kind == "ratio":
            ops.append(("ratio", rng.randrange(25, 75)))
    return ops


def _apply(app, op):
    from repro.components.drawing.shapes import RectShape

    kind = op[0]
    if kind == "key":
        app["window"].inject_key(op[1])
    elif kind == "scroll_text":
        app["text_view"].set_scroll_pos(op[1])
    elif kind == "scroll_table":
        app["table_view"].set_scroll_pos(op[1])
    elif kind == "cell":
        app["table_data"].set_cell(op[1], op[2], op[3])
        app["table_data"].notify_observers()
    elif kind == "shape":
        app["draw_data"].add_shape(RectShape(Rect(op[1], op[2], op[3], op[4])))
        app["draw_data"].notify_observers()
    elif kind == "expose_full":
        app["window"].inject_expose()
    elif kind == "expose_rect":
        app["window"].inject_expose(Rect(op[1], op[2], op[3], op[4]))
    elif kind == "ratio":
        app["split"].ratio = op[1]
        app["split"]._needs_layout = True
        app["split"].want_update()
    app["im"].process_events()


@pytest.mark.parametrize("backend", ["ascii", "raster"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_snapshot_equivalence_randomized(backend, seed):
    """The tentpole's proof: on-vs-off pixel identity after every op."""
    if backend == "ascii":
        make_ws, width, height = AsciiWindowSystem, 70, 20
    else:
        make_ws, width, height = RasterWindowSystem, 120, 64
    ops = _random_ops(seeded_rng(seed), 35, width, height)

    was = compositor.enabled
    try:
        compositor.configure(False)
        control = _build_app(make_ws(), width, height, opt_in=True)
        compositor.configure(True)
        subject = _build_app(make_ws(), width, height, opt_in=True)
        assert _fingerprint(subject["window"]) == _fingerprint(
            control["window"]
        )
        for step, op in enumerate(ops):
            compositor.configure(False)
            _apply(control, op)
            compositor.configure(True)
            _apply(subject, op)
            assert _fingerprint(subject["window"]) == _fingerprint(
                control["window"]
            ), f"divergence at step {step} ({describe_seed(seed)}): {op!r}"
    finally:
        compositor.configure(was)


@pytest.mark.parametrize("seed", [3, 11])
def test_snapshot_equivalence_under_tiny_budget(seed):
    """Constant eviction pressure must not change a single cell."""
    width, height = 70, 20
    ops = _random_ops(seeded_rng(seed), 25, width, height)
    was = compositor.enabled
    try:
        compositor.configure(False)
        control = _build_app(AsciiWindowSystem(), width, height, opt_in=True)
        compositor.configure(True)
        subject = _build_app(AsciiWindowSystem(), width, height, opt_in=True)
        subject["im"].window_system.surfaces.budget = 600  # ~1 pane
        for op in ops:
            compositor.configure(False)
            _apply(control, op)
            compositor.configure(True)
            _apply(subject, op)
            assert _fingerprint(subject["window"]) == _fingerprint(
                control["window"]
            )
    finally:
        compositor.configure(was)


def test_clean_pane_blits_instead_of_redrawing(compositor_on):
    """Edits confined to one pane leave the other panes' draw counts
    untouched across full-window exposes — the perf claim itself."""
    app = _build_app(AsciiWindowSystem(), 70, 20, opt_in=True)
    app["im"].process_events()
    table_draws = app["table_view"].draw_count
    draw_draws = app["draw_view"].draw_count
    for _ in range(5):
        app["window"].inject_key("x")
        app["window"].inject_expose()  # full-window damage
        app["im"].process_events()
    assert app["table_view"].draw_count == table_draws
    assert app["draw_view"].draw_count == draw_draws
    assert app["text_view"].draw_count > 0
