"""The remote matrix: a wire-fed renderer is byte-identical to local.

The same seeded scenario scripts the gate matrix runs are driven
through a :class:`~repro.remote.RemoteWindowSystem`: every frame is
encoded, shipped through the in-process pipe and decoded by a dumb
:class:`~repro.remote.RemoteRenderer`, and after every step the
*renderer's* replica must be byte-identical to a plain local backend
run of the same script.  Axes:

* ``batch`` off and on, on both render targets (the scripts' scroll
  shift-blits are exactly what the encoder's shadow-diff repair must
  absorb).  A remote window always records; the ``batch`` arm also
  holds the *sender's* replayed surface to the local baseline at every
  step, not only the renderer's;
* a short keyframe interval + chunked 13-byte writes (periodic
  keyframes and partial-frame buffering must be invisible);
* a chaos arm: seeded ``remote.send`` faults drop/truncate frames and
  the renderer must resynchronize at the next keyframe;
* a glyph client — one device request per character — whose recorded
  frames must hold exactly one op per request the local run issued.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.core import InteractionManager
from repro.testing import faultinject
from repro.wm.ascii_ws import AsciiWindowSystem
from repro.wm.raster_ws import RasterWindowSystem
from tests.randutil import describe_seed, seeded_rng

from .driver import (
    apply_op,
    build_app,
    fingerprint,
    gates,
    run_scenario,
    run_scenario_remote,
    scenario_ops,
)

#: target -> (local window system, width, height, steps, seed offset).
BACKENDS = {
    "ascii": (AsciiWindowSystem, 70, 20, 60, 0),
    "raster": (RasterWindowSystem, 100, 56, 36, 5000),
}

COMBOS = ["all-off", "batch"]


#: Per-target memo of (ops, stepwise local-baseline fingerprints).
_baselines = {}


def _baseline(target):
    if target not in _baselines:
        make_ws, width, height, steps, offset = BACKENDS[target]
        ops = scenario_ops(seeded_rng(offset), steps, width, height)
        with gates(metrics_on=False):
            prints = run_scenario(make_ws, ops, width, height)
        _baselines[target] = (ops, prints)
    return _baselines[target]


def _compare(target, actual, ops, expected, context):
    assert len(actual) == len(expected)
    offset = BACKENDS[target][4]
    for step, (got, want) in enumerate(zip(actual, expected)):
        op = ops[step - 1] if step else ("initial paint",)
        assert got == want, (
            f"{target} remote run diverged from local baseline at step "
            f"{step} ({op!r}) [{context}]; {describe_seed(offset)}"
        )


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("target", sorted(BACKENDS))
def test_remote_matches_local_across_gates(target, combo):
    _, width, height, _steps, _offset = BACKENDS[target]
    ops, expected = _baseline(target)
    replicas = [] if combo == "batch" else None
    with gates(metrics_on=False):
        actual = run_scenario_remote(target, ops, width, height,
                                     replicas=replicas)
    _compare(target, actual, ops, expected, f"gates={combo}")
    if replicas is not None:
        _compare(target, replicas, ops, expected,
                 f"gates={combo}, sender replica")


@pytest.mark.parametrize("target", sorted(BACKENDS))
def test_remote_keyframes_and_chunked_feed_match_local(target):
    """Periodic keyframes + 13-byte writes: resync machinery and
    partial-frame buffering exercised on every step, same bytes out."""
    _, width, height, _steps, _offset = BACKENDS[target]
    ops, expected = _baseline(target)
    with gates(metrics_on=False):
        actual = run_scenario_remote(target, ops, width, height,
                                     keyframe_interval=3, chunk_size=13)
    _compare(target, actual, ops, expected,
             "keyframe_interval=3 chunk=13")


@pytest.mark.parametrize("target", sorted(BACKENDS))
def test_remote_resynchronizes_after_transport_faults(target):
    """Seeded socket drops and short writes: frames are lost mid-run,
    the renderer never raises, and it converges at a keyframe.

    The sender deliberately does not request a keyframe on a failed
    send (it has no back-channel); recovery must come from the
    periodic keyframe alone, so the interval is kept short.
    """
    from repro.remote import RemoteRenderer, RemoteWindowSystem

    _, width, height, steps, offset = BACKENDS[target]
    interval = 4
    ops = scenario_ops(seeded_rng(offset), steps, width, height)
    with gates(metrics_on=True):
        renderer = RemoteRenderer()
        ws = RemoteWindowSystem(target, keyframe_interval=interval)
        app = build_app(ws, width, height)
        app["window"].attach_renderer(renderer)
        faultinject.configure(20260807, 0.2, seams=("remote.send",))
        try:
            for op in ops:
                apply_op(app, op)
                app["window"].flush()
        finally:
            faultinject.configure(None)
        counters = obs.registry.snapshot()["counters"]
        dropped = counters.get("remote.frames_dropped", 0)
        assert dropped > 0, (
            f"chaos arm injected nothing — seam wiring broken; "
            f"{describe_seed(offset)}"
        )
        # Faults off: within one keyframe interval of healthy frames
        # the renderer must be back in lockstep with the sender.
        for _ in range(interval + 1):
            app["window"].inject_expose()
            app["im"].process_events()
            app["window"].flush()
        assert renderer.synchronized, (
            f"renderer never resynchronized after {dropped} lost frames"
        )
        assert fingerprint(renderer) == fingerprint(app["window"]), (
            f"replica diverged after resync ({dropped} frames lost, "
            f"{renderer.resyncs} resyncs, {renderer.frames_skipped} "
            f"skipped); {describe_seed(offset)}"
        )


# ---------------------------------------------------------------------------
# A glyph client: one device request per character, recorded one to one.
# ---------------------------------------------------------------------------


class GlyphByGlyph:
    """A drawable that issues one ``draw_string`` request per glyph,
    the way a character-cell client (a terminal emulator, a hand-rolled
    editor) drives the device."""

    def __init__(self, graphic) -> None:
        self._graphic = graphic

    def __getattr__(self, name):
        return getattr(self._graphic, name)

    def draw_string(self, x: int, y: int, text: str) -> None:
        for char in text:
            self._graphic.draw_string(x, y, char)
            x += self._graphic.string_width(char)


class GlyphTextView(TextView):
    """``TextView`` painted glyph by glyph: the per-glyph client."""

    def draw(self, graphic) -> None:
        super().draw(GlyphByGlyph(graphic))


def _glyph_session(window_system, width, height):
    """Type, scroll and expose a glyph-client text view; yield the
    window after every pumped step."""
    im = InteractionManager(window_system, width=width, height=height)
    view = GlyphTextView(TextData("\n".join(
        f"paragraph {i:02d}: the quick brown fox jumps over the lazy dog"
        for i in range(30)
    )))
    im.set_child(view)
    im.set_focus(view)
    im.process_events()
    yield im.window
    for step, char in enumerate("glyph\tby\nglyph"):
        im.window.inject_key("Return" if char == "\n" else char)
        if step % 4 == 3:
            im.window.inject_expose()
        im.process_events()
        yield im.window
    for pos in (3, 9, 4):
        view.set_scroll_pos(pos)
        im.process_events()
        yield im.window


@pytest.mark.parametrize("target", sorted(BACKENDS))
def test_glyph_client_records_one_op_per_device_request(target):
    """Remote recording merges nothing: a glyph client's renderer
    matches the local render byte for byte at every step, and on
    raster the op log holds exactly one op per device request that the
    same session issued on the local backend (an ascii window logs
    nothing; its renderer match is the whole check)."""
    from repro.remote import RemoteRenderer, RemoteWindowSystem

    make_ws, width, height, _steps, _offset = BACKENDS[target]
    with gates(metrics_on=True):
        expected = [fingerprint(window)
                    for window in _glyph_session(make_ws(), width, height)]
        local_requests = obs.registry.counter(f"wm.{target}.requests")
    with gates(metrics_on=True):
        renderer = RemoteRenderer()
        ws = RemoteWindowSystem(target, renderer=renderer)
        actual = []
        for window in _glyph_session(ws, width, height):
            window.flush()
            actual.append(fingerprint(renderer))
        recorded = obs.registry.counter("wm.requests_batched")
    assert actual == expected
    assert local_requests > 500  # the client really is request-heavy
    assert recorded == (local_requests if target == "raster" else 0)
