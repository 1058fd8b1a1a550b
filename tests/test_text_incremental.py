"""Incremental relayout equivalence and instrumentation tests.

The correctness bar for the paragraph-cache (see DESIGN.md
"Performance"): after any edit sequence, the incrementally repaired
display-line list must be *identical* — line by line, field by field —
to what a from-scratch wrap of the same buffer produces.  These tests
enforce that with randomized edit scripts driven against a pair of
views on the same :class:`TextData`: the subject view repairs
incrementally, the control view (``incremental_enabled = False``)
re-wraps from scratch on every layout.
"""

import pytest

from tests.randutil import describe_seed, seeded_rng

from repro import obs
from repro.components.text import TextData, TextView
from repro.components.text.textview import _EmbedLine, _TextLine
from repro.core import InteractionManager
from repro.graphics import Rect
from repro.wm import AsciiWindowSystem


@pytest.fixture
def telemetry():
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    yield obs.registry
    obs.configure(metrics=was, reset_data=True)


def line_signature(view):
    """Every field of every display line, after a (lazy) layout.

    A line's start and the height above it are read through the view's
    deferred-shift indexes, so a stale pending shift shows up here.
    """
    view.layout()
    signature = []
    for index, line in enumerate(view._lines):
        start, above = view._starts[index], view._prefix[index]
        if isinstance(line, _TextLine):
            signature.append(("text", start, above, line.text,
                              line.indent, line.centered, line.height))
        elif isinstance(line, _EmbedLine):
            assert start == line.embed.pos
            signature.append(("embed", start, above, id(line.embed),
                              line.indent, line.width, line.height))
        else:  # pragma: no cover - no other line kinds exist
            signature.append(("?", repr(line)))
    return signature


def make_pair(ws, text="", width=60, height=18):
    """A subject/control view pair sharing one TextData."""
    data = TextData(text)
    subject_im = InteractionManager(ws, title="subject",
                                    width=width, height=height)
    subject = TextView(data)
    subject_im.set_child(subject)
    control_im = InteractionManager(ws, title="control",
                                    width=width, height=height)
    control = TextView(data)
    control.incremental_enabled = False  # instance override: always full
    control_im.set_child(control)
    subject_im.flush_updates()
    control_im.flush_updates()
    return subject_im, subject, control_im, control, data


def assert_equivalent(subject_im, subject, control_im, control):
    assert line_signature(subject) == line_signature(control)
    subject_im.redraw()
    control_im.redraw()
    assert (subject_im.snapshot_lines()
            == control_im.snapshot_lines())


# ---------------------------------------------------------------------------
# Directed cases: the edit shapes most likely to fool a line cache
# ---------------------------------------------------------------------------


class TestDirectedEquivalence:
    def test_insert_mid_paragraph(self, ascii_ws):
        pair = make_pair(ascii_ws, "alpha\nbeta\ngamma")
        *_, data = pair
        data.insert(8, "XYZ")
        assert_equivalent(*pair[:4])

    def test_insert_right_after_newline(self, ascii_ws):
        pair = make_pair(ascii_ws, "alpha\nbeta\ngamma")
        *_, data = pair
        data.insert(6, "Q")
        assert_equivalent(*pair[:4])

    def test_append_at_document_end(self, ascii_ws):
        pair = make_pair(ascii_ws, "alpha\nbeta")
        *_, data = pair
        data.insert(data.length, "!")
        assert_equivalent(*pair[:4])
        data.insert(data.length, "\nnew paragraph")
        assert_equivalent(*pair[:4])

    def test_delete_whole_paragraph(self, ascii_ws):
        # Deleting "bb\n" exactly leaves a stale cached line sharing the
        # surviving paragraph's doc_start; it must not be reused.
        pair = make_pair(ascii_ws, "aa\nbb\ncc")
        *_, data = pair
        data.delete(3, 3)
        assert_equivalent(*pair[:4])

    def test_delete_joining_two_paragraphs(self, ascii_ws):
        pair = make_pair(ascii_ws, "first line\nsecond line\nthird line")
        *_, data = pair
        data.delete(8, 6)  # spans the first newline
        assert_equivalent(*pair[:4])

    def test_delete_backspace_at_document_end(self, ascii_ws):
        pair = make_pair(ascii_ws, "ab\ncd")
        *_, data = pair
        data.delete(data.length - 1, 1)
        assert_equivalent(*pair[:4])

    def test_delete_trailing_newline(self, ascii_ws):
        pair = make_pair(ascii_ws, "ab\n")
        *_, data = pair
        data.delete(2, 1)
        assert_equivalent(*pair[:4])

    def test_delete_last_newline_after_empty_paragraph(self, ascii_ws):
        # The cut's join point clamps to the buffer end, where the
        # deleted empty paragraph's cached line must not be reused.
        pair = make_pair(ascii_ws, "ab\n\n")
        *_, data = pair
        data.delete(3, 1)
        assert_equivalent(*pair[:4])

    def test_style_change_rewraps_span(self, ascii_ws):
        pair = make_pair(ascii_ws, "plain text\nstyled paragraph\nplain")
        *_, data = pair
        data.add_style(11, 27, "indent")
        assert_equivalent(*pair[:4])
        data.clear_styles(0, data.length)
        assert_equivalent(*pair[:4])

    def test_multiple_edits_between_layouts(self, ascii_ws):
        # Several pending change records must compose: the dirty span and
        # the cached doc_starts are both kept in current coordinates.
        pair = make_pair(ascii_ws, "one\ntwo\nthree\nfour\nfive")
        *_, data = pair
        data.insert(4, "2a 2b ")
        data.delete(0, 2)
        data.insert(data.length, " more")
        data.add_style(2, 5, "bold")
        assert_equivalent(*pair[:4])

    def test_edit_before_restricted_region(self, ascii_ws):
        pair = make_pair(ascii_ws, "head\nbody one\nbody two\ntail")
        subject_im, subject, control_im, control, data = pair
        subject.set_region(5, 22)
        control.set_region(5, 22)
        assert_equivalent(subject_im, subject, control_im, control)
        data.insert(0, "XX")   # before the region: marks shift it
        assert_equivalent(subject_im, subject, control_im, control)
        data.insert(9, "mid")  # inside the region
        assert_equivalent(subject_im, subject, control_im, control)

    def test_embed_insertion_forces_consistent_layout(self, ascii_ws):
        pair = make_pair(ascii_ws, "before\nafter")
        *_, data = pair
        data.insert_object(3, TextData("inner"), "textview")
        assert_equivalent(*pair[:4])
        data.insert(0, "zz")  # then an ordinary edit with the embed present
        assert_equivalent(*pair[:4])

    def test_cut_after_a_final_embed_rewraps_from_the_line_before(
            self, ascii_ws):
        # The block's position is no clean restart: the text line before
        # it ends there, flushed by the block, and the trailing line
        # after the block starts one past it.
        pair = make_pair(ascii_ws, "abc")
        *_, data = pair
        data.insert_object(3, TextData("inner"), "textview")
        data.insert(4, "xyz")
        assert_equivalent(*pair[:4])
        data.delete(4, 3)
        assert_equivalent(*pair[:4])

    def test_cut_to_the_end_rewraps_the_last_paragraph(self, ascii_ws):
        # An empty re-wrap range would give the trailing line the
        # properties at the buffer end, not those of the line before.
        pair = make_pair(ascii_ws, "abc\nxyz")
        *_, data = pair
        data.add_style(0, 3, "indent")
        assert_equivalent(*pair[:4])
        data.delete(4, 3)
        assert_equivalent(*pair[:4])

    def test_newline_before_a_final_embed_rewraps_the_block(self, ascii_ws):
        # The block followed text on its line and now opens its own; its
        # cached start stays at the insertion point, inside the dirty
        # span, so the re-wrap re-derives it and the trailing line.
        pair = make_pair(ascii_ws, "abc")
        *_, data = pair
        data.insert_object(3, TextData("inner"), "textview")
        assert_equivalent(*pair[:4])
        data.insert(3, "\n")
        assert_equivalent(*pair[:4])

    def test_grown_embed_shifts_heights_below(self, ascii_ws, telemetry):
        # An embedded view that grew between layouts changes the height
        # above every later line, though none of them was re-wrapped.
        pair = make_pair(ascii_ws, "top\nmiddle\n" + "tail line\n" * 6)
        *_, data = pair
        inner = TextData("one")
        data.insert_object(4, inner, "textview")
        assert_equivalent(*pair[:4])
        telemetry.reset()
        inner.insert(3, "\ntwo\nthree")
        data.insert(data.length - 3, "y")  # far below the embed
        assert_equivalent(*pair[:4])
        assert telemetry.counter("text.layout_incremental") >= 1

    def test_width_change_forces_full_layout(self, ascii_ws, telemetry):
        pair = make_pair(ascii_ws, "a long paragraph that wraps at the "
                                   "margin several times over " * 3)
        subject_im, subject, control_im, control, data = pair
        line_signature(subject)
        telemetry.reset()
        subject.set_bounds(Rect(0, 0, 31, 18))
        control.set_bounds(Rect(0, 0, 31, 18))
        subject.layout()
        assert telemetry.counter("text.layout_full") == 1
        assert telemetry.counter("text.layout_incremental") == 0
        assert_equivalent(subject_im, subject, control_im, control)


# ---------------------------------------------------------------------------
# Instrumentation: typing must reuse nearly every line
# ---------------------------------------------------------------------------


class TestIncrementalCounters:
    def test_mid_document_typing_reuses_lines(self, ascii_ws, telemetry):
        text = "\n".join(f"paragraph number {i} with several words"
                         for i in range(120))
        pair = make_pair(ascii_ws, text)
        _, subject, _, _, data = pair
        total = len(line_signature(subject))
        assert total > 100
        telemetry.reset()
        data.insert(len(text) // 2, "x")
        subject.layout()
        assert telemetry.counter("text.layout_incremental") == 1
        assert telemetry.counter("text.layout_full") == 0
        assert telemetry.counter("text.lines_reused") >= total - 3
        assert telemetry.counter("text.lines_wrapped") <= 3

    def test_scroll_only_layout_reuses_everything(self, ascii_ws, telemetry):
        text = "\n".join(f"line {i}" for i in range(50))
        pair = make_pair(ascii_ws, text)
        _, subject, _, _, _ = pair
        total = len(line_signature(subject))
        telemetry.reset()
        subject.set_scroll_pos(20)
        subject.layout()
        assert telemetry.counter("text.layout_incremental") == 1
        assert telemetry.counter("text.lines_reused") == total

    def test_typing_on_a_last_line_costs_no_more_in_a_long_paragraph(
            self, telemetry):
        # The re-wrap starts at the edited display line, not at the
        # paragraph's first.
        assert _last_line_key_wraps(telemetry, 60) \
            == _last_line_key_wraps(telemetry, 6_000)

    def test_backspace_at_a_paragraph_end_rewraps_no_later_paragraph(
            self, telemetry):
        # The character left at the join point is the paragraph's
        # newline, so the re-wrap ends just past it.
        data = TextData("abcx\n" + "a long paragraph that wraps " * 20)
        im = InteractionManager(AsciiWindowSystem(), width=60, height=18)
        view = TextView(data)
        im.set_child(view)
        view.layout()
        telemetry.reset()
        data.delete(3, 1)
        view.ensure_layout()
        assert telemetry.counter("text.layout_full") == 0
        assert telemetry.counter("text.lines_wrapped") == 1
        control = TextView(data)
        control.incremental_enabled = False
        im.set_child(control)
        assert line_signature(view) == line_signature(control)

    def test_counters_silent_when_metrics_off(self, ascii_ws):
        was = obs.metrics_enabled()
        obs.configure(metrics=False, reset_data=True)
        try:
            pair = make_pair(ascii_ws, "aa\nbb")
            *_, data = pair
            data.insert(1, "x")
            assert_equivalent(*pair[:4])
            assert obs.registry.counter("text.layout_incremental") == 0
            assert obs.registry.counter("text.layout_full") == 0
        finally:
            obs.configure(metrics=was, reset_data=True)


def _last_line_key_wraps(telemetry, length):
    """``text.lines_wrapped`` for one key typed at the end of a
    ``length``-character paragraph, which wraps to several lines."""
    body = ("word " * length)[:length]
    data = TextData("intro\n" + body + "\noutro")
    im = InteractionManager(AsciiWindowSystem(), width=60, height=18)
    view = TextView(data)
    im.set_child(view)
    view.layout()
    telemetry.reset()
    data.insert(len("intro\n") + length, "x")
    view.ensure_layout()
    wrapped = telemetry.counter("text.lines_wrapped")
    assert telemetry.counter("text.layout_full") == 0
    control = TextView(data)
    control.incremental_enabled = False
    im.set_child(control)
    assert line_signature(view) == line_signature(control)
    return wrapped


# ---------------------------------------------------------------------------
# Randomized edit scripts (the equivalence fuzzer)
# ---------------------------------------------------------------------------

_WORDS = [
    "wrap", "andrew", "toolkit", "pane ", "x", "two words",
    "a considerably longer run of text that will cross the margin",
    "tab\there", "mixed  spacing", "Z",
]
_BREAKS = ["\n", "\n\n", " \n", "q\n"]
_STYLE_NAMES = ["bold", "italic", "bigger", "smaller",
                "indent", "center", "quotation", "section"]


def _random_edit(rng, pair, step):
    subject_im, subject, control_im, control, data = pair
    roll = rng.random()
    if roll < 0.40 or data.length == 0:  # insert text
        pos = rng.randint(0, data.length)
        chunk = rng.choice(_WORDS)
        if rng.random() < 0.3:
            chunk += rng.choice(_BREAKS)
        data.insert(pos, chunk)
    elif roll < 0.62:  # delete a range
        start = rng.randint(0, data.length - 1)
        length = rng.randint(1, min(25, data.length - start))
        data.delete(start, length)
    elif roll < 0.74:  # style a span
        start = rng.randint(0, data.length - 1)
        end = rng.randint(start + 1, data.length)
        data.add_style(start, end, rng.choice(_STYLE_NAMES))
    elif roll < 0.80:  # move the caret (scrolls the view)
        pos = rng.randint(0, data.length)
        subject.set_dot(pos)
        control.set_dot(pos)
    elif roll < 0.86:  # scroll explicitly
        pos = rng.randint(0, max(0, subject.scroll_total()))
        subject.set_scroll_pos(pos)
        control.set_scroll_pos(pos)
    elif roll < 0.90:  # embed a component
        pos = rng.randint(0, data.length)
        data.insert_object(pos, TextData(f"embed {step}"), "textview")
    elif roll < 0.94:  # restrict / widen the visible region
        if rng.random() < 0.5 and data.length > 2:
            a = rng.randint(0, data.length - 1)
            b = rng.randint(a + 1, data.length)
            subject.set_region(a, b)
            control.set_region(a, b)
        else:
            subject.clear_region()
            control.clear_region()
    else:  # resize (forces the one-shot full-layout fallback)
        width = rng.randint(24, 72)
        height = rng.randint(6, 24)
        subject.set_bounds(Rect(0, 0, width, height))
        control.set_bounds(Rect(0, 0, width, height))


@pytest.mark.parametrize("seed", range(10))
def test_randomized_equivalence_ascii(ascii_ws, seed):
    rng = seeded_rng(seed)
    start_text = "\n".join(
        f"paragraph {i}: the quick brown fox jumps over the lazy dog"
        for i in range(rng.randint(0, 12))
    )
    pair = make_pair(ascii_ws, start_text)
    for step in range(40):
        _random_edit(rng, pair, step)
        if step % 4 == 3:  # several pending records between layouts
            assert_equivalent(*pair[:4])
    assert_equivalent(*pair[:4])


@pytest.mark.parametrize("seed", range(4))
def test_randomized_equivalence_raster(raster_ws, seed):
    # The raster device realizes per-size metrics, so style edits change
    # line heights and wrap points; equivalence must hold there too.
    rng = seeded_rng(1000 + seed)
    pair = make_pair(raster_ws, "one\ntwo three four five\nsix",
                     width=180, height=120)
    for step in range(30):
        _random_edit(rng, pair, step)
        assert_equivalent(*pair[:4])


# ---------------------------------------------------------------------------
# The deferred shift: edit scripts aimed at the pending (index, delta)
# ---------------------------------------------------------------------------


def _straddling_delete(rng, subject, data):
    """A delete whose range straddles the line where the subject's
    pending start shift begins (or a random one when none is pending)."""
    starts = subject._starts
    if starts.delta and starts.at < len(starts):
        pivot = starts[starts.at]
    else:
        pivot = rng.randint(0, data.length)
    lo = max(0, pivot - rng.randint(0, 6))
    hi = min(data.length, pivot + rng.randint(1, 6))
    if hi > lo:
        data.delete(lo, hi - lo)


def _deferred_shift_step(rng, pair, step):
    subject_im, subject, control_im, control, data = pair
    roll = rng.random()
    if roll < 0.35 or data.length == 0:  # a typing burst at the caret
        for char in rng.choice(["abc", "x", "wrap me ", "\t", "q\n"]):
            subject.insert_text(char)
            control.set_dot(subject.dot)
    elif roll < 0.45:  # far jump, then type there
        pos = rng.randint(0, data.length)
        subject.set_dot(pos)
        control.set_dot(pos)
        subject.insert_text("jump")
        control.set_dot(subject.dot)
    elif roll < 0.60:
        _straddling_delete(rng, subject, data)
    elif roll < 0.68:  # backspace at the caret
        subject._cmd_backspace(subject, None)
        control.set_dot(subject.dot)
    elif roll < 0.76:  # style change around the caret
        lo = max(0, subject.dot - rng.randint(1, 12))
        hi = min(data.length, subject.dot + rng.randint(0, 12))
        if hi > lo:
            data.add_style(lo, hi, rng.choice(_STYLE_NAMES))
    elif roll < 0.82:  # embed insert
        data.insert_object(rng.randint(0, data.length),
                           TextData(f"embed {step}"), "textview")
    elif roll < 0.88 and data.embeds():  # embed delete, with neighbours
        embed = rng.choice(data.embeds())
        lo = max(0, embed.pos - rng.randint(0, 3))
        data.delete(lo, min(data.length, embed.pos + 1) - lo)
    elif roll < 0.94:  # a set_region view, or the whole buffer again
        if rng.random() < 0.6 and data.length > 2:
            a = rng.randint(0, data.length - 1)
            b = rng.randint(a + 1, data.length)
            subject.set_region(a, b)
            control.set_region(a, b)
        else:
            subject.clear_region()
            control.clear_region()
    else:  # scroll
        pos = rng.randint(0, max(0, subject.scroll_total()))
        subject.set_scroll_pos(pos)
        control.set_scroll_pos(pos)


@pytest.mark.parametrize("backend,seed", [
    ("ascii", s) for s in range(8)] + [("raster", s) for s in range(3)])
def test_deferred_shift_matches_full_layout(ascii_ws, raster_ws, backend,
                                            seed):
    # After every step, each line's effective start and each prefix
    # height equal a from-scratch _layout_full of the same buffer.
    rng = seeded_rng(2000 + seed)
    text = "\n".join(f"paragraph {i}: some words that wrap at the margin"
                     for i in range(rng.randint(3, 15)))
    if backend == "ascii":
        pair = make_pair(ascii_ws, text, width=30, height=10)
    else:
        pair = make_pair(raster_ws, text, width=180, height=96)
    subject = pair[1]
    subject.set_dot(pair[4].length // 2)
    for step in range(50):
        _deferred_shift_step(rng, pair, step)
        assert line_signature(subject) == line_signature(pair[3]), (
            describe_seed(2000 + seed), step)
    assert_equivalent(*pair[:4])


# ---------------------------------------------------------------------------
# Per-keystroke work does not grow with the document
# ---------------------------------------------------------------------------

_WORK_COUNTERS = ("text.lines_settled", "text.lines_wrapped",
                  "text.layout_full", "wm.ascii.requests",
                  "im.repaint_area")


def _untouched_run(before, after):
    """Entries at the two ends of ``after`` still equal to ``before``."""
    head = 0
    while (head < min(len(before), len(after))
           and before[head] == after[head]):
        head += 1
    tail = 0
    while (tail < min(len(before), len(after)) - head
           and before[-1 - tail] == after[-1 - tail]):
        tail += 1
    return len(after) - head - tail


def _local_editing_work(telemetry, paragraphs):
    """Counters for a local editing script in the middle of a document
    of ``paragraphs`` paragraphs (each paragraph wraps to two lines)."""
    text = "\n".join(f"paragraph {i % 10}: a few words that wrap here"
                     for i in range(paragraphs))
    data = TextData(text)
    im = InteractionManager(AsciiWindowSystem(), width=30, height=12)
    view = TextView(data)
    im.set_child(view)
    im.redraw()
    view.set_dot(text.index("\n", len(text) // 2))
    im.flush_updates()
    starts_before = list(view._starts.values)
    prefix_before = list(view._prefix.values)
    telemetry.reset()
    for action in ["type:hello", "back", "back", "type:\n", "type:ab",
                   "left", "left", "right", "up", "down", "style",
                   "type:more words here to rewrap", "back"]:
        kind, _, payload = action.partition(":")
        if kind == "type":
            for char in payload:
                view.insert_text(char)
                im.flush_updates()
            continue
        if kind == "back":
            view._cmd_backspace(view, None)
        elif kind == "left":
            view._cmd_left(view, None)
        elif kind == "right":
            view._cmd_right(view, None)
        elif kind == "up":
            view._cmd_up(view, None)
        elif kind == "down":
            view._cmd_down(view, None)
        elif kind == "style":
            data.add_style(view.dot - 3, view.dot, "bold")
        im.flush_updates()
    work = {name: telemetry.counter(name) for name in _WORK_COUNTERS}
    # Stored index entries rewritten: the later lines move through the
    # pending delta, never by rewriting their entries.
    work["starts_rewritten"] = _untouched_run(starts_before,
                                              view._starts.values)
    work["prefix_rewritten"] = _untouched_run(prefix_before,
                                              view._prefix.values)
    return work


def test_keystroke_work_independent_of_document_length(telemetry):
    small = _local_editing_work(telemetry, 2_000)
    large = _local_editing_work(telemetry, 20_000)
    assert small == large
    assert small["text.layout_full"] == 0
    assert small["starts_rewritten"] <= 12
    assert small["prefix_rewritten"] <= 12
