"""Scroll conformance: the shift-blit renders byte-identical output.

On a drawable with ``copy_area`` a scroll is a same-surface shift plus
one exposed-strip repaint; on a port without it (see
:func:`~tests.conformance.driver.without_copy_area`) the same scroll
repaints the whole area.  The contract is the usual one: the shift
must not change a single cell/pixel against that full-repaint
reference, at any step, with or without the ``batch`` arm (a remote
window that also logs every op for the wire, see
:func:`~tests.conformance.driver.recording_ws`), on either backend.

Five scripted scenarios cover the scroll entry points — wheel-style
relative scrolls, keyboard paging, dragging the scroll-bar thumb,
scroll-then-edit interleavings, and scrolls racing exposes inside one
event pump — and a seeded fuzzer mixes scrolls into the full driver op
vocabulary (edits, divider moves, resizes) for both backends, one op
per pump and in pumps of several ops (damage then scroll, scroll then
scroll, expose then scroll).
"""

from __future__ import annotations

import pytest

from repro.components import Frame, ScrollBar, TextView
from repro.components.text.textdata import TextData
from repro.core import InteractionManager
from repro.graphics import Rect
from repro.wm.ascii_ws import AsciiWindowSystem
from repro.wm.raster_ws import RasterWindowSystem
from tests.randutil import describe_seed, seeded_rng

from .driver import (
    apply_op,
    build_app,
    fingerprint,
    gates,
    inject_op,
    recording_ws,
    scenario_ops,
    without_copy_area,
)

#: backend -> (window system, width, height).
BACKENDS = {
    "ascii": (AsciiWindowSystem, 70, 20),
    "raster": (RasterWindowSystem, 100, 56),
}


# ---------------------------------------------------------------------------
# The scroll-heavy app: Frame(ScrollBar(TextView)) so paging keys and
# thumb drags have a real bar to land on.
# ---------------------------------------------------------------------------


def build_bar_app(window_system, width: int, height: int) -> dict:
    im = InteractionManager(window_system, width=width, height=height)
    text_data = TextData("\n".join(
        f"line {i}: the quick brown fox jumps over the lazy dog"
        for i in range(80)
    ))
    text_view = TextView(text_data)
    bar = ScrollBar(text_view)
    frame = Frame(bar)
    im.set_child(frame)
    im.set_focus(text_view)
    im.process_events()
    return {
        "im": im,
        "window": im.window,
        "text_view": text_view,
        "bar": bar,
        "frame": frame,
    }


def apply_bar_op(app, op) -> None:
    kind = op[0]
    window = app["window"]
    if kind == "wheel":
        view = app["text_view"]
        view.set_scroll_pos(view.scroll_pos() + op[1])
    elif kind == "key":
        window.inject_key(op[1])
    elif kind == "thumb":
        window.inject_drag(0, op[1], 0, op[2])
    elif kind == "expose_full":
        window.inject_expose()
    elif kind == "expose_rect":
        window.inject_expose(Rect(op[1], op[2], op[3], op[4]))
    elif kind == "scroll+expose":
        # Both land in the same pump: the expose's damage covers the
        # pane, so the scroll must not shift the stale pixels under it.
        window.inject_expose(Rect(op[1], op[2], op[3], op[4]))
        view = app["text_view"]
        view.set_scroll_pos(view.scroll_pos() + op[5])
    app["im"].process_events()


def _scenarios(width: int, height: int):
    """name -> op script, deterministic per backend geometry."""
    mid_w, mid_h = width // 2, height // 2
    return {
        "wheel": (
            [("wheel", d) for d in (1, 3, 2, -1, 5, -3, 2, 2, -2, 40, -40, 1)]
        ),
        "page": (
            [("key", "Next")] * 3 + [("key", "Prior")] * 2
            + [("key", "Next"), ("key", "Prior"), ("key", "Prior"),
               ("key", "Prior"), ("key", "Next")]
        ),
        "thumb": [
            ("thumb", 1, height // 3),
            ("thumb", height // 3, height - 3),
            ("thumb", height - 3, 2),
            ("thumb", 2, height // 2),
        ],
        "scroll_then_edit": [
            ("wheel", 4), ("key", "x"), ("wheel", 3), ("key", "y"),
            ("wheel", -2), ("key", "z"), ("key", "Return"), ("wheel", 6),
            ("key", "w"), ("wheel", -6),
        ],
        "scroll_during_expose": [
            ("wheel", 5),
            ("scroll+expose", 2, 2, mid_w, mid_h, 3),
            ("expose_full",),
            ("scroll+expose", mid_w, 1, mid_w - 2, mid_h, -4),
            ("wheel", 2),
            ("expose_rect", 0, 0, width - 1, height - 1),
            ("scroll+expose", 1, 1, width - 3, height - 3, 7),
        ],
    }


def _run_bar_scenario(make_ws, ops, width, height):
    app = build_bar_app(make_ws(), width, height)
    prints = [fingerprint(app["window"])]
    for op in ops:
        apply_bar_op(app, op)
        prints.append(fingerprint(app["window"]))
    return prints


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("arm", ["plain", "batch"])
@pytest.mark.parametrize(
    "scenario",
    ["wheel", "page", "thumb", "scroll_then_edit", "scroll_during_expose"],
)
def test_scrollblit_identity(backend, arm, scenario):
    """Full-area repaint (no ``copy_area``) vs shift-blit, drawing
    immediately (``plain``) and on a recording window (``batch``)."""
    make_ws, width, height = BACKENDS[backend]
    ops = _scenarios(width, height)[scenario]
    if arm == "batch":
        make_ws = recording_ws(backend)
    with gates(False):
        with without_copy_area():
            expected = _run_bar_scenario(make_ws, ops, width, height)
        actual = _run_bar_scenario(make_ws, ops, width, height)
    for step, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, (
            f"scroll-blit diverged on {backend} [{arm}] "
            f"scenario {scenario!r} at step {step} "
            f"(op {ops[step - 1] if step else 'initial'})"
        )


# ---------------------------------------------------------------------------
# Fuzzer: scrolls mixed into the full driver vocabulary.
# ---------------------------------------------------------------------------


def _fuzz_ops(rng, count, width, height):
    """Driver ops re-weighted toward scrolling, plus relative wheels."""
    ops = []
    for op in scenario_ops(rng, count, width, height):
        ops.append(op)
        if rng.random() < 0.5:
            ops.append(("scroll_text", rng.randrange(0, 30)))
    return ops


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed_offset", [0, 17])
def test_scrollblit_fuzz_identity(backend, seed_offset):
    make_ws, width, height = BACKENDS[backend]
    steps = 70 if backend == "ascii" else 40
    offset = 9000 + seed_offset
    ops = _fuzz_ops(seeded_rng(offset), steps, width, height)

    def run():
        app = build_app(make_ws(), width, height)
        prints = [fingerprint(app["window"])]
        for op in ops:
            apply_op(app, op)
            prints.append(fingerprint(app["window"]))
        return prints

    with gates(False):
        with without_copy_area():
            expected = run()
        actual = run()
    for step, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, (
            f"scroll-blit fuzz diverged on {backend} at step {step} "
            f"(op {ops[step - 1] if step else 'initial'}, "
            f"{describe_seed(offset)})"
        )


def _pumps(rng, ops):
    """Cut ``ops`` into consecutive pumps of 1-4 ops each."""
    pumps = []
    while ops:
        size = rng.randint(1, 4)
        pumps.append(ops[:size])
        ops = ops[size:]
    return pumps


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("arm", ["plain", "batch"])
@pytest.mark.parametrize("seed_offset", [0, 17, 31])
def test_scrollblit_multi_op_pump_identity(backend, arm, seed_offset):
    """Several ops land in one pump, so a scroll meets damage, another
    scroll or an expose queued earlier in the same drain."""
    make_ws, width, height = BACKENDS[backend]
    if arm == "batch":
        make_ws = recording_ws(backend)
    steps = 70 if backend == "ascii" else 40
    offset = 9500 + seed_offset
    rng = seeded_rng(offset)
    pumps = _pumps(rng, _fuzz_ops(rng, steps, width, height))

    def run():
        app = build_app(make_ws(), width, height)
        prints = [fingerprint(app["window"])]
        for pump in pumps:
            for op in pump:
                inject_op(app, op)
            app["im"].process_events()
            prints.append(fingerprint(app["window"]))
        return prints

    with gates(False):
        with without_copy_area():
            expected = run()
        actual = run()
    for step, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, (
            f"scroll-blit pump fuzz diverged on {backend} [{arm}] at "
            f"step {step} (pump {pumps[step - 1] if step else 'initial'}, "
            f"{describe_seed(offset)})"
        )
