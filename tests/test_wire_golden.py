"""Golden wire frames: the encoded byte stream is part of the API.

Each case drives one deterministic app script on a
:class:`~repro.remote.RemoteWindowSystem` and hex-dumps every frame the
encoder ships.  The dumps are checked in under ``tests/golden/`` so
*accidental* format drift fails loudly; a deliberate wire change (with
the version-bump rules in DESIGN.md honoured) regenerates with::

    PYTHONPATH=src python -m pytest tests/test_wire_golden.py \
        --snapshot-update

Every case also decodes its own stream through a renderer and compares
against the app's local replica — the golden bytes are never allowed
to be stale-but-self-consistent garbage.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.remote import CaptureSink, RemoteRenderer, RemoteWindowSystem
from tests.conformance.driver import gates

GOLDEN_DIR = Path(__file__).parent / "golden"

_WRAP = 64


def _hex_dump(frames) -> str:
    """One paragraph of wrapped hex per frame, blank-line separated."""
    paragraphs = []
    for index, frame in enumerate(frames):
        hexed = frame.hex()
        lines = [f"# frame {index}: {len(frame)} bytes"]
        lines += [hexed[i:i + _WRAP] for i in range(0, len(hexed), _WRAP)]
        paragraphs.append("\n".join(lines))
    return "\n\n".join(paragraphs)


def _remote_ws():
    sink = CaptureSink()
    return RemoteWindowSystem("ascii", sink=sink), sink


def _ez_frames():
    from repro.apps.ez import EZApp

    ws, sink = _remote_ws()
    app = EZApp(window_system=ws)
    app.im.window.inject_keys(
        "The Andrew Toolkit\n\n"
        "A window is a tree of views; each view draws through a\n"
        "clipped graphic and never touches its neighbours."
    )
    app.process()
    ws.windows[0].flush()
    return sink.frames, app.snapshot()


def _help_frames():
    from repro.apps.help import HelpApp

    ws, sink = _remote_ws()
    app = HelpApp(window_system=ws)
    app.process()
    ws.windows[0].flush()
    return sink.frames, app.snapshot()


def _table_scroll_frames():
    from repro.components.frame import Frame
    from repro.components.scrollbar import ScrollBar
    from repro.components.table.tabledata import TableData
    from repro.components.table.tableview import TableView
    from repro.core import InteractionManager

    ws, sink = _remote_ws()
    im = InteractionManager(ws, title="table", width=60, height=14)
    data = TableData(8, 4)
    for row in range(8):
        for col in range(4):
            data.set_cell(row, col, (row + 1) * (col + 2))
    view = TableView(data)
    im.set_child(Frame(ScrollBar(view)))
    im.process_events()
    view.set_scroll_pos(2)
    im.process_events()
    im.window.flush()
    return sink.frames, im.window.snapshot()


CASES = {
    "wire_ez": _ez_frames,
    "wire_help": _help_frames,
    "wire_table_scroll": _table_scroll_frames,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_wire_frames(name, snapshot_update):
    # Pin the gate set: the op stream (hence the bytes) depends on it.
    with gates(metrics_on=False):
        frames, local_snapshot = CASES[name]()
    assert frames, f"{name} shipped no frames"

    # Self-check first: the stream must decode back to the local screen.
    renderer = RemoteRenderer()
    renderer.feed(b"".join(frames))
    assert renderer.resyncs == 0 and renderer.frames_skipped == 0
    assert "\n".join(renderer.surface.lines()) == local_snapshot, (
        f"{name}: stream does not reproduce the local screen"
    )

    rendered = _hex_dump(frames)
    path = GOLDEN_DIR / f"{name}.hex"
    if snapshot_update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered + "\n")
        pytest.skip(f"golden updated: {path}")
    assert path.exists(), (
        f"missing golden {path}; run pytest --snapshot-update to create it"
    )
    expected = path.read_text().rstrip("\n")
    if rendered != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), rendered.splitlines(),
            fromfile=f"golden/{name}.hex", tofile="encoded", lineterm="",
        ))
        pytest.fail(
            f"wire frames for {name!r} differ from the golden — either an "
            f"accidental format drift (fix the codec) or a deliberate "
            f"change (bump repro.remote.wire.VERSION per DESIGN.md and "
            f"--snapshot-update):\n{diff}"
        )
