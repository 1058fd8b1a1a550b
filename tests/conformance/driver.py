"""Reusable randomized scenario driver for rendering conformance.

The contract every rendering optimisation must meet: flipping its gate
must not change a single cell/pixel of output.  This module provides
the pieces the matrix test (and any future gate's tests) composes:

* :func:`build_app` — a three-pane window (text | table / drawing)
  with focus, on any backend;
* :func:`scenario_ops` — a seeded script of edit / scroll / expose /
  divider / resize operations;
* :func:`apply_op` — apply one script entry and pump the event loop;
* :func:`fingerprint` — every cell/pixel and attribute of the window
  surface, flushed first so a remote window ships what it shows;
* :func:`run_scenario` — the full loop, returning one fingerprint per
  step so divergence is reported at the exact step and op;
* :func:`gates` — a context manager configuring the whole gate set and
  restoring the previous state afterwards;
* :func:`without_copy_area` — a context manager that runs both local
  backends as a port whose drawables lack ``copy_area``, so scrolls
  take the full-area repaint fallback (the scroll suite's reference);
* :func:`recording_ws` — the ``batch`` arm's window system: the same
  target, but every frame also recorded for the wire.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Tuple

from repro import obs
from repro.core import InteractionManager
from repro.core import faults
from repro.graphics import Rect
from repro.wm.ascii_ws import AsciiGraphic
from repro.wm.raster_ws import RasterGraphic

__all__ = [
    "OP_KINDS",
    "apply_op",
    "build_app",
    "fingerprint",
    "gates",
    "inject_op",
    "recording_ws",
    "run_scenario",
    "run_scenario_remote",
    "run_scenario_server",
    "scenario_ops",
    "without_copy_area",
]

#: Script-entry kinds (weights live in :func:`scenario_ops`).
OP_KINDS = (
    "key", "scroll_text", "scroll_table", "cell", "shape",
    "expose_full", "expose_rect", "ratio", "resize",
)


def build_app(window_system, width: int, height: int) -> dict:
    """A text | (table / drawing) split window, every pane focusable."""
    from repro.components.drawing.drawdata import DrawingData
    from repro.components.drawing.drawview import DrawView
    from repro.components.split import SplitView
    from repro.components.table.tabledata import TableData
    from repro.components.table.tableview import TableView
    from repro.components.text.textdata import TextData
    from repro.components.text.textview import TextView

    im = InteractionManager(window_system, width=width, height=height)
    text_data = TextData("\n".join(
        f"line {i}: the quick brown fox jumps over the lazy dog"
        for i in range(30)
    ))
    text_view = TextView(text_data)
    table_data = TableData(6, 3)
    table_view = TableView(table_data)
    draw_data = DrawingData()
    draw_view = DrawView(draw_data)
    split = SplitView(text_view,
                      SplitView(table_view, draw_view, vertical=False),
                      vertical=True)
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
        "base_size": (width, height),
    }


def scenario_ops(rng, count: int, width: int, height: int) -> List[Tuple]:
    """A seeded script of ``count`` operations over the three panes.

    Keystrokes dominate (they are what real sessions are made of), with
    scrolls, data edits, partial and full exposes, divider moves and
    occasional window resizes mixed in.
    """
    ops: List[Tuple] = []
    for _ in range(count):
        kind = rng.choice(
            ["key", "key", "key", "scroll_text", "scroll_table", "cell",
             "shape", "expose_full", "expose_rect", "ratio", "resize"]
        )
        if kind == "key":
            ops.append(("key", rng.choice("abcdefgh XYZ\t")))
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
        elif kind == "resize":
            # Grow/shrink around the base size; the driver clamps to the
            # app's own base so both arms see identical dimensions.
            ops.append(("resize", rng.randrange(-6, 7), rng.randrange(-3, 4)))
    return ops


def inject_op(app, op: Tuple) -> None:
    """Apply one script entry *without* pumping the event loop.

    Split from :func:`apply_op` for the chaos matrix: direct mutator
    calls here stand in for application code (a ``notify_observers``
    re-raise is the app's to handle), while the ``process_events`` pump
    must never leak an exception — the two need separate try scopes.
    """
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
    elif kind == "resize":
        base_w, base_h = app["base_size"]
        app["window"].resize(max(20, base_w + op[1]), max(10, base_h + op[2]))


def apply_op(app, op: Tuple) -> None:
    """Apply one script entry, then pump the event loop."""
    inject_op(app, op)
    app["im"].process_events()


def fingerprint(window):
    """Every cell/pixel and attribute of a backend window's surface.

    Flushes first, so a remote window ships the frame its surface
    shows before a renderer-side fingerprint is taken.
    """
    window.flush()
    surface = getattr(window, "surface", None)
    if surface is not None:  # ascii: chars + inverse + bold
        return (
            tuple(surface._chars),
            bytes(surface._inverse),
            bytes(surface._bold),
        )
    return bytes(window.framebuffer._bits)  # raster: the bit plane


def recording_ws(target: str) -> Callable:
    """Factory for the ``batch`` arm of a matrix: ``target``'s surface
    on the remote backend with no viewer attached.

    Every device op draws on the window's own surface at once, as on
    a local window, and the frame is also recorded — the path every
    remote frame takes: raster logs each op into the window's command
    buffer, and an ascii surface records its copies and written rows.
    Fingerprinting that surface against a local run proves the
    recording window byte-identical to a plain one.
    """
    from repro.remote import RemoteWindowSystem

    return lambda: RemoteWindowSystem(target)


def run_scenario(make_ws: Callable, ops: List[Tuple], width: int,
                 height: int) -> List:
    """Build the app, apply every op, fingerprint after each step.

    Returns ``[initial, after_op_0, after_op_1, ...]`` so a comparison
    against another arm can name the exact diverging step.
    """
    app = build_app(make_ws(), width, height)
    prints = [fingerprint(app["window"])]
    for op in ops:
        apply_op(app, op)
        prints.append(fingerprint(app["window"]))
    return prints


def run_scenario_server(make_ws: Callable, ops: List[Tuple], width: int,
                        height: int, *, slice_events: int = 1) -> List:
    """:func:`run_scenario`, but the session is hosted by a ServerLoop.

    The same app, the same script — except every pump goes through
    :meth:`ServerLoop.run_until_idle` with a deliberately tiny
    ``slice_events`` budget, so each op is drained across several
    bounded scheduler slices (with an update flush after every slice)
    instead of one synchronous ``process_events`` call.  The server
    matrix compares the resulting stepwise fingerprints against the
    standalone baseline: scheduling must be invisible in the bytes.
    """
    from repro.server import ServerLoop

    loop = ServerLoop(slice_events=slice_events)
    app = build_app(make_ws(), width, height)
    loop.add_session(im=app["im"], session_id="conformance")
    prints = [fingerprint(app["window"])]
    for op in ops:
        inject_op(app, op)
        loop.run_until_idle()
        prints.append(fingerprint(app["window"]))
    return prints


def run_scenario_remote(target: str, ops: List[Tuple], width: int,
                        height: int, *, keyframe_interval: int = 64,
                        chunk_size: int = None,
                        replicas: List = None) -> List:
    """:func:`run_scenario`, but rendered by a wire-fed remote client.

    The app runs on a :class:`~repro.remote.RemoteWindowSystem`; every
    frame is encoded, shipped through the in-process pipe (optionally
    split into ``chunk_size``-byte writes to exercise partial-frame
    buffering) and decoded by a dumb :class:`~repro.remote.
    RemoteRenderer`.  Fingerprints are taken from the **renderer's**
    replica, so comparing against :func:`run_scenario`'s local baseline
    proves the whole encode/wire/decode path byte-identical at every
    step.  The renderer attaches *after* the app's first paint — the
    late-joiner path — so step 0 also proves keyframe convergence.
    Pass a list as ``replicas`` to also collect the sending window's
    own surface fingerprint at every step.
    """
    from repro.remote import RemoteRenderer, RemoteWindowSystem

    renderer = RemoteRenderer()
    ws = RemoteWindowSystem(target, keyframe_interval=keyframe_interval)
    app = build_app(ws, width, height)
    app["window"].attach_renderer(renderer, chunk_size)

    def step():
        # fingerprint() flushes the window, shipping the frame first.
        if replicas is not None:
            replicas.append(fingerprint(app["window"]))
        else:
            app["window"].flush()
        return fingerprint(renderer)

    prints = [step()]
    for op in ops:
        apply_op(app, op)
        prints.append(step())
    return prints


@contextlib.contextmanager
def gates(metrics_on: bool, quarantine: bool = None) -> Iterator[None]:
    """Configure the rendering-gate set; restore the old state after.

    ``quarantine`` defaults to ``None`` (leave the gate alone — it is
    on by default and fault-free runs must render identically either
    way, which its matrix proves by flipping it explicitly).
    """
    was_metrics = obs.metrics_enabled()
    was_quarantine = faults.enabled
    obs.configure(metrics=metrics_on, reset_data=True)
    if quarantine is not None:
        faults.configure(quarantine)
    try:
        yield
    finally:
        obs.configure(metrics=was_metrics, reset_data=True)
        faults.configure(was_quarantine)


@contextlib.contextmanager
def without_copy_area() -> Iterator[None]:
    """Run the ascii and raster drawables (remote windows draw through
    the same classes) as a port without ``copy_area``.

    Interaction managers built inside the block never shift a scroll;
    every scroll falls back to full-area damage, the path any port
    whose drawable cannot copy within itself takes.
    """
    classes = (AsciiGraphic, RasterGraphic)
    saved = [cls.can_copy_area for cls in classes]
    for cls in classes:
        cls.can_copy_area = False
    try:
        yield
    finally:
        for cls, was in zip(classes, saved):
            cls.can_copy_area = was
