"""Text damage oracle: every repaint leaves the surface a fresh view shows.

An edit posts damage for the rows its splice changed and shifts the
rows below it when their height moved; a caret move that scrolls
shifts the view.  ``tests/test_text_incremental.py`` proves the line
list equals a from-scratch wrap; this file proves the *pixels* do:
after every ``process_events`` of a seeded random script, the live
window equals a freshly built view on the same buffer at the same
scroll position, caret and selection, redrawn from scratch.  Any row
an edit changed but did not damage (or shifted wrongly) shows up as a
differing cell.

Seeds derive from :mod:`tests.randutil`, so ``ANDREW_TEST_SEED``
reseeds every script.
"""

import pytest

from tests.conformance.driver import fingerprint
from tests.randutil import describe_seed, seeded_rng

from repro import obs
from repro.components.text import TextData, TextView
from repro.core import InteractionManager
from repro.wm import AsciiWindowSystem, RasterWindowSystem

#: Window sizes: about 8 rows of text on each backend.
_SIZES = {"ascii": (30, 8), "raster": (180, 64)}
_BACKENDS = {"ascii": AsciiWindowSystem, "raster": RasterWindowSystem}
#: Stacked, "bigger" and "chapter" reach a 24-point font, which the
#: raster backend draws twice as wide and tall.
_STYLES = ("bold", "italic", "bigger", "chapter", "center", "indent",
           "typewriter")
_WORDS = ("a", "toolkit", "view", "of", "the", "data", "object", "tab\tstop")


def _document(rng):
    lines = []
    for _ in range(rng.randint(10, 16)):
        lines.append(" ".join(rng.choice(_WORDS)
                              for _ in range(rng.randint(0, 7))))
    return "\n".join(lines)


def _editor(backend, text):
    width, height = _SIZES[backend]
    im = InteractionManager(_BACKENDS[backend](), width=width, height=height)
    data = TextData(text)
    view = TextView(data)
    im.set_child(view)
    im.set_focus(view)
    im.process_events()
    return im, view, data


def _fresh_fingerprint(backend, live):
    """The window a new view on ``live``'s buffer draws from scratch at
    ``live``'s scroll position, caret and selection."""
    width, height = _SIZES[backend]
    im = InteractionManager(_BACKENDS[backend](), width=width, height=height)
    view = TextView(live.data)
    im.set_child(view)
    selection = live.selection()
    if selection is None:
        view.set_dot(live.dot)
    else:
        anchor = selection[0] if live.dot == selection[1] else selection[1]
        view.set_dot(anchor)
        view.set_dot(live.dot, extend=True)
    view.set_scroll_pos(live.scroll_pos())
    im.redraw()
    shown = fingerprint(im.window)
    view.set_dot(view.dot)  # release the anchor mark
    view.set_dataobject(None)
    return shown


def _random_step(rng, im, view, data):
    """One scripted input: a key, an edit through the data object, a
    caret move, a scroll or a selection.  Returns its label."""
    window = im.window
    length = data.length
    kind = rng.choice(("type", "type", "type", "backspace", "return",
                       "delete_key", "delete_span", "style", "unstyle",
                       "wrap_insert", "insert_far", "arrow", "jump",
                       "scroll", "select"))
    if kind == "type":
        text = "".join(rng.choice("abcxyz ") for _ in range(rng.randint(1, 3)))
        window.inject_keys(text)
    elif kind == "backspace":
        window.inject_key("Backspace")
    elif kind == "return":
        window.inject_key("Return")
    elif kind == "delete_key":
        window.inject_key("Delete")
    elif kind == "delete_span" and length:
        # Often across a paragraph boundary.
        start = rng.randrange(length)
        data.delete(start, min(length - start, rng.randint(1, 40)))
    elif kind == "style" and length:
        start = rng.randrange(length)
        data.add_style(start, min(length, start + rng.randint(1, 30)),
                       rng.choice(_STYLES))
    elif kind == "unstyle" and length:
        start = rng.randrange(length)
        data.clear_styles(start, min(length, start + rng.randint(5, 60)))
    elif kind == "wrap_insert":
        # Long enough to grow its line by a wrapped row or more.
        view.insert_text("wrapping" * rng.randint(3, 6))
    elif kind == "insert_far":
        # Another party's edit anywhere: above, in or below the window.
        data.insert(rng.randint(0, length), rng.choice(("x", "\n", "yy\nz")))
    elif kind == "arrow":
        key = rng.choice(("Up", "Down", "Left", "Right"))
        for _ in range(rng.randint(1, 6)):
            window.inject_key(key)
    elif kind == "jump":
        # Past either window edge, or anywhere.
        view.set_dot(rng.choice((0, length, rng.randint(0, length))))
    elif kind == "scroll":
        view.set_scroll_pos(max(0, view.scroll_pos()
                                + rng.randint(-3, 3) * view.scroll_visible()
                                // 8))
    elif kind == "select":
        view.set_dot(rng.randint(0, length), extend=True)
    return kind


@pytest.mark.parametrize("backend,scripts,steps", [
    ("ascii", 12, 60),
    ("raster", 4, 40),
])
def test_every_repaint_equals_a_fresh_view(backend, scripts, steps):
    offset = 0 if backend == "ascii" else 500
    for script in range(scripts):
        rng = seeded_rng(offset + script)
        seed = describe_seed(offset + script)
        im, view, data = _editor(backend, _document(rng))
        view.set_dot(data.length // 2)
        im.process_events()
        labels = []
        for _ in range(steps):
            labels.append(_random_step(rng, im, view, data))
            im.process_events()
            assert fingerprint(im.window) == _fresh_fingerprint(
                backend, view), f"{seed} after {labels[-8:]}"


@pytest.mark.parametrize("backend", ["ascii", "raster"])
def test_same_height_edit_repaints_one_row(backend):
    im, view, data = _editor(
        backend, "\n".join(f"line {i} of the note" for i in range(20)))
    view.set_dot(data.search("line 4") + 4)
    im.process_events()
    row_cells = im.window.bounds.width * view._lines[4].height
    was = obs.metrics_enabled()
    obs.configure(metrics=True, reset_data=True)
    try:
        for key in "ab":
            im.window.inject_key(key)
        im.window.inject_key("Backspace")
        for _ in range(3):
            before = obs.registry.counter("im.repaint_area")
            im.process_events(limit=1)
            assert obs.registry.counter("im.repaint_area") - before \
                == row_cells
    finally:
        obs.configure(metrics=was, reset_data=True)
    assert fingerprint(im.window) == _fresh_fingerprint(backend, view)
