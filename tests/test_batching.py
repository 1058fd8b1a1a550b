"""Batched drawable command buffers (tentpole PR 4).

Covers:

* run coalescing rules — abutting fills merge (inversion included),
  overlapping ink spans union while inversion spans must exactly abut,
  same-baseline text concatenates only under one font and clip;
* replay order: only *consecutive* ops merge, so recording order is
  replay order;
* the ``ANDREW_BATCH`` switch (inert when off, recording when on) and
  the batching telemetry counters/timer;
* flush ordering — every observation point settles the buffer first:
  ``snapshot_lines``, ``pending_events``, ``flush_updates`` (even with
  an empty damage queue — regression for the direct-repaint path),
  offscreen ``copy_to``;
* ``resize`` discarding ops recorded against the discarded surface.

Byte-identity of whole frames lives in ``tests/conformance/``.
"""

import pytest

from repro import obs
from repro.core import InteractionManager
from repro.wm.events import UpdateEvent
from repro.components import Label
from repro.graphics import FontDesc, Rect
from repro.graphics import batch
from repro.graphics.batch import CommandBuffer


@pytest.fixture
def batching():
    """Batching enabled for one test, previous state restored after."""
    was = batch.enabled
    batch.configure(True)
    yield
    batch.configure(was)


@pytest.fixture
def telemetry():
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    yield obs.registry
    obs.configure(metrics=was, reset_data=True)


def _window(ws, width=40, height=10):
    return ws.create_window("t", width, height)


# ---------------------------------------------------------------------------
# Coalescing rules (pure CommandBuffer, no device)
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_abutting_fills_merge(self):
        buffer = CommandBuffer(None)
        buffer.record_fill(Rect(0, 0, 4, 3), 1)
        buffer.record_fill(Rect(4, 0, 2, 3), 1)   # shares the right edge
        buffer.record_fill(Rect(0, 3, 6, 2), 1)   # shares the bottom edge
        assert buffer.pending == 1

    def test_fills_with_different_values_do_not_merge(self):
        buffer = CommandBuffer(None)
        buffer.record_fill(Rect(0, 0, 4, 3), 1)
        buffer.record_fill(Rect(4, 0, 2, 3), 0)
        assert buffer.pending == 2

    def test_overlapping_fills_do_not_merge(self):
        # Overlap would double-toggle an inversion; only edge-sharing
        # disjoint rects tile into one.
        buffer = CommandBuffer(None)
        buffer.record_fill(Rect(0, 0, 4, 3), -1)
        buffer.record_fill(Rect(3, 0, 4, 3), -1)
        assert buffer.pending == 2

    def test_abutting_invert_fills_merge(self):
        buffer = CommandBuffer(None)
        buffer.record_fill(Rect(0, 0, 4, 3), -1)
        buffer.record_fill(Rect(4, 0, 4, 3), -1)
        assert buffer.pending == 1

    def test_ragged_fills_do_not_merge(self):
        buffer = CommandBuffer(None)
        buffer.record_fill(Rect(0, 0, 4, 3), 1)
        buffer.record_fill(Rect(4, 1, 2, 3), 1)  # offset rows: no tile
        assert buffer.pending == 2

    def test_ink_spans_union_even_overlapping(self):
        buffer = CommandBuffer(None)
        buffer.record_hline(0, 10, 5, 1)
        buffer.record_hline(8, 20, 5, 1)   # overlaps: idempotent, unions
        buffer.record_hline(21, 30, 5, 1)  # abuts: unions
        assert buffer.pending == 1

    def test_invert_spans_require_exact_abutment(self):
        buffer = CommandBuffer(None)
        buffer.record_hline(0, 10, 5, -1)
        buffer.record_hline(10, 20, 5, -1)  # overlaps one cell: toggle!
        assert buffer.pending == 2
        buffer.record_hline(21, 30, 5, -1)  # exactly abuts the last
        assert buffer.pending == 2

    def test_vline_spans_union_on_one_column(self):
        buffer = CommandBuffer(None)
        buffer.record_vline(3, 0, 4, 1)
        buffer.record_vline(3, 5, 9, 1)
        buffer.record_vline(4, 10, 12, 1)  # other column: new op
        assert buffer.pending == 2

    def test_text_concatenates_same_baseline_font_clip(self):
        font = FontDesc("andy", 12)
        clip = Rect(0, 0, 40, 10)
        metrics = type("M", (), {"char_width": 1})()
        buffer = CommandBuffer(None)
        buffer.record_text(0, 2, "he", font, clip, metrics)
        buffer.record_text(2, 2, "llo", font, clip, metrics)
        assert buffer.pending == 1
        assert buffer._ops[0][3] == "hello"

    def test_text_gap_or_new_baseline_breaks_the_run(self):
        font = FontDesc("andy", 12)
        clip = Rect(0, 0, 40, 10)
        metrics = type("M", (), {"char_width": 1})()
        buffer = CommandBuffer(None)
        buffer.record_text(0, 2, "a", font, clip, metrics)
        buffer.record_text(2, 2, "b", font, clip, metrics)  # one-cell gap
        buffer.record_text(3, 3, "c", font, clip, metrics)  # next line
        assert buffer.pending == 3

    def test_text_font_or_clip_change_breaks_the_run(self):
        clip = Rect(0, 0, 40, 10)
        metrics = type("M", (), {"char_width": 1})()
        buffer = CommandBuffer(None)
        buffer.record_text(0, 2, "a", FontDesc("andy", 12), clip, metrics)
        buffer.record_text(1, 2, "b", FontDesc("andy", 14), clip, metrics)
        buffer.record_text(2, 2, "c", FontDesc("andy", 14),
                           Rect(0, 0, 20, 10), metrics)
        assert buffer.pending == 3

    def test_text_tab_advance_counts_four_cells(self):
        font = FontDesc("andy", 12)
        clip = Rect(0, 0, 40, 10)
        metrics = type("M", (), {"char_width": 1})()
        buffer = CommandBuffer(None)
        buffer.record_text(0, 2, "a\t", font, clip, metrics)  # ends at 5
        buffer.record_text(5, 2, "b", font, clip, metrics)
        assert buffer.pending == 1

    def test_only_consecutive_ops_merge(self):
        # An intervening op must break the run: replay preserves
        # recording order, so merging across it would reorder drawing.
        buffer = CommandBuffer(None)
        buffer.record_fill(Rect(0, 0, 4, 3), 1)
        buffer.record_hline(0, 10, 8, 1)
        buffer.record_fill(Rect(4, 0, 2, 3), 1)
        assert buffer.pending == 3

    def test_repeated_blits_of_one_bitmap_snapshot_once(self):
        # The latent bug the wire encoder surfaced: record_blit used to
        # snapshot the source eagerly per call, so an animation blitting
        # one cel N times copied (and would have wire-encoded) the
        # pixels N times.  Identical contents now intern per frame.
        from repro.graphics import Bitmap

        bitmap = Bitmap(4, 4)
        bitmap.set(1, 1, 1)
        buffer = CommandBuffer(None)
        for i in range(5):
            buffer.record_blit(bitmap, i * 4, 0)
        snapshots = {id(op[1]) for op in buffer._ops}
        assert len(snapshots) == 1
        # A mutation between blits must still snapshot fresh pixels —
        # the intern keys on content, not identity.
        bitmap.set(2, 2, 1)
        buffer.record_blit(bitmap, 20, 0)
        assert len({id(op[1]) for op in buffer._ops}) == 2
        width, _height, pixels = buffer._ops[-1][1]
        assert pixels[1 * width + 1] == 1
        # Draining the buffer clears the intern: the source may mutate
        # freely between frames.
        buffer.discard()
        assert buffer._blit_cache == {}

    def test_blit_dedupe_counts_in_telemetry(self, telemetry):
        from repro.graphics import Bitmap

        bitmap = Bitmap(2, 2)
        buffer = CommandBuffer(None)
        for _ in range(4):
            buffer.record_blit(bitmap, 0, 0)
        assert telemetry.snapshot()["counters"][
            "wm.blit_snapshots_deduped"
        ] == 3


# ---------------------------------------------------------------------------
# The switch and the telemetry
# ---------------------------------------------------------------------------


class TestSwitchAndCounters:
    def test_off_is_inert(self, ascii_ws):
        was = batch.enabled
        batch.configure(False)
        try:
            window = _window(ascii_ws)
            graphic = window.graphic()
            assert graphic._buffer is None
            graphic.fill_rect(Rect(0, 0, 4, 2), 1)
            assert window.commands.pending == 0
            assert window.surface.char_at(0, 0) == "#"  # drew immediately
        finally:
            batch.configure(was)

    def test_on_records_instead_of_drawing(self, ascii_ws, batching):
        window = _window(ascii_ws)
        graphic = window.graphic()
        graphic.fill_rect(Rect(0, 0, 4, 2), 1)
        assert window.commands.pending == 1
        assert window.surface.char_at(0, 0) == " "  # not drawn yet
        window.flush()
        assert window.commands.pending == 0
        assert window.surface.char_at(0, 0) == "#"

    def test_child_graphics_share_the_window_buffer(self, ascii_ws, batching):
        window = _window(ascii_ws)
        child = window.graphic().child(Rect(2, 2, 10, 4))
        child.fill_rect(Rect(0, 0, 2, 2), 1)
        assert window.commands.pending == 1

    def test_counters_and_flush_timer(self, ascii_ws, batching, telemetry):
        window = _window(ascii_ws)
        graphic = window.graphic()
        graphic.draw_string(0, 0, "a")
        graphic.draw_string(1, 0, "b")   # coalesces with the first
        graphic.fill_rect(Rect(0, 2, 4, 2), 1)
        window.flush()
        snap = telemetry.snapshot()
        assert snap["counters"]["wm.requests_batched"] == 3
        assert snap["counters"]["wm.ops_coalesced"] == 1
        assert snap["counters"]["wm.batch_flushes"] == 1
        assert snap["counters"]["wm.batch_ops_replayed"] == 2
        assert snap["timers"]["wm.batch_flush_ns"]["count"] == 1
        # Replay issued exactly one device request per coalesced op.
        assert snap["counters"]["wm.ascii.requests"] == 2

    def test_configure_restores(self):
        was = batch.enabled
        batch.configure(True)
        assert batch.batch_enabled()
        batch.configure(was)
        assert batch.enabled == was


# ---------------------------------------------------------------------------
# Flush ordering: observation points settle the buffer
# ---------------------------------------------------------------------------


class TestFlushOrdering:
    def test_snapshot_mid_frame_settles(self, ascii_ws, batching):
        """Regression: ops recorded but not yet flushed must land before
        the snapshot is taken, on demand."""
        im = InteractionManager(ascii_ws, width=20, height=4)
        im.set_child(Label("hello"))
        im.flush_updates()
        # Dispatch an expose by hand — no flush_updates afterwards, so
        # the repainted frame may still sit in the command buffer.
        im.window.inject_expose()
        while True:
            event = im.window.next_event()
            if event is None:
                break
            im.handle_event(event)
        snapshot = im.window.snapshot()
        assert "hello" in snapshot
        assert im.window.commands.pending == 0

    def test_raster_snapshot_mid_frame_settles(self, raster_ws, batching):
        window = _window(raster_ws, 30, 10)
        window.graphic().fill_rect(Rect(0, 0, 30, 10), 1)
        assert window.commands.pending == 1
        lines = window.snapshot_lines()
        assert window.commands.pending == 0
        assert any("#" in line for line in lines)

    def test_pending_events_settles(self, ascii_ws, batching):
        window = _window(ascii_ws)
        window.graphic().fill_rect(Rect(0, 0, 4, 2), 1)
        assert window.commands.pending == 1
        window.pending_events()
        assert window.commands.pending == 0

    def test_flush_updates_settles_without_damage(self, ascii_ws, batching):
        """Regression for the early-return path: a direct repaint leaves
        recorded ops but no queued damage; flush_updates must still
        drain the buffer."""
        im = InteractionManager(ascii_ws, width=20, height=4)
        im.set_child(Label("mark"))
        im.process_events()
        assert im.updates.is_empty()
        im.handle_event(UpdateEvent(im.window.bounds, full=True))
        im.flush_updates()  # damage queue empty; buffer must drain anyway
        assert im.window.commands.pending == 0
        assert "mark" in im.window.snapshot()

    def test_process_events_always_settles(self, ascii_ws, batching):
        im = InteractionManager(ascii_ws, width=20, height=4)
        im.set_child(Label("mark"))
        im.process_events()
        im.window.inject_expose()
        im.process_events()
        assert im.window.commands.pending == 0

    def test_offscreen_copy_to_settles_target(self, ascii_ws, batching):
        window = _window(ascii_ws, 20, 6)
        graphic = window.graphic()
        graphic.fill_rect(Rect(0, 0, 20, 6), 1)    # recorded, pending
        off = ascii_ws.create_offscreen(4, 2)
        off.graphic().clear()                       # offscreen: immediate
        off.copy_to(graphic, 2, 2)                  # must settle first
        window.flush()
        # The blank offscreen landed *after* the fill — not under it.
        assert window.surface.char_at(2, 2) == " "
        assert window.surface.char_at(0, 0) == "#"

    def test_offscreen_graphics_never_batch(self, ascii_ws, batching):
        off = ascii_ws.create_offscreen(4, 2)
        graphic = off.graphic()
        assert graphic._buffer is None
        graphic.fill_rect(Rect(0, 0, 4, 2), 1)
        assert off.surface.char_at(0, 0) == "#"     # drew immediately


# ---------------------------------------------------------------------------
# Resize
# ---------------------------------------------------------------------------


class TestResize:
    def test_resize_discards_pending_ops(self, ascii_ws, batching):
        window = _window(ascii_ws)
        window.graphic().fill_rect(Rect(0, 0, 4, 2), 1)
        assert window.commands.pending == 1
        window.resize(30, 8)
        assert window.commands.pending == 0
        window.flush()  # nothing to replay against the fresh surface
        assert window.surface.char_at(0, 0) == " "
