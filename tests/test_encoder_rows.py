"""Row-bounded ascii encoding: the same bytes as a whole-surface diff.

A remote ascii window's surface records its frame: the copies made
before any row was written, and the rows written since the last frame.
The encoder ships the copies and diffs and syncs only those rows.  This
file keeps a whole-surface encoder as the reference: it ships the same
recorded copies, then diffs and syncs every row.  Twin remote windows
run the same random script, one with the real :class:`FrameEncoder`,
one with :class:`ReferenceEncoder`, and every shipped frame must be
byte-identical.  A renderer fed by the real window must also hold the
window's surface after every shipped frame, and no flush may leave a
copy recorded.

A script mixes every surface writer (fills, text, lines and pixels,
blits, ``CellSurface.put``, an offscreen ``copy_to``), scroll copies
made both before and after a write, flushes with no viewer attached
followed by a resume with ``attach_sink(keyframe=False)``, and resizes.

Hypothesis seeds from :mod:`tests.randutil`, so ``ANDREW_TEST_SEED``
draws a different set of scripts.
"""

from typing import List, Tuple

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tests.randutil import base_seed

from repro.graphics.batch import apply_op
from repro.graphics.color import TransferMode
from repro.graphics.fontdesc import BOLD, FontDesc
from repro.graphics.geometry import Rect
from repro.graphics.image import Bitmap
from repro.remote import RemoteRenderer, RemoteWindowSystem, wire
from repro.remote.encoder import FrameEncoder
from repro.remote.transport import RendererSink
from repro.wm.ascii_ws import AsciiOffscreen

_PLAIN = FontDesc("andy", 12)
_BOLD = FontDesc("andy", 12, (BOLD,))
_MODES = (TransferMode.BLACK, TransferMode.WHITE, TransferMode.INVERT)


def whole_surface_diff_cells(old, new, max_gap: int = 4
                             ) -> Tuple[List[tuple], int]:
    """The whole-surface cell diff the row-bounded one replaced."""
    ops: List[tuple] = []
    changed = 0
    width = new.width
    old_chars, old_inverse, old_bold = old._chars, old._inverse, old._bold
    new_chars, new_inverse, new_bold = new._chars, new._inverse, new._bold
    for y in range(new.height):
        base = y * width
        end = base + width
        if (old_chars[base:end] == new_chars[base:end]
                and old_inverse[base:end] == new_inverse[base:end]
                and old_bold[base:end] == new_bold[base:end]):
            continue
        row_changed = [
            x for x in range(width)
            if (old_chars[base + x] != new_chars[base + x]
                or old_inverse[base + x] != new_inverse[base + x]
                or old_bold[base + x] != new_bold[base + x])
        ]
        changed += len(row_changed)
        run_start = prev = row_changed[0]
        runs = []
        for x in row_changed[1:]:
            if x - prev > max_gap + 1:
                runs.append((run_start, prev))
                run_start = x
            prev = x
        runs.append((run_start, prev))
        for x0, x1 in runs:
            chars = "".join(new.char_at(x, y) for x in range(x0, x1 + 1))
            inverse = wire.pack_bits(new_inverse[base + x0:base + x1 + 1])
            bold = wire.pack_bits(new_bold[base + x0:base + x1 + 1])
            ops.append(("cells", y, x0, chars, inverse, bold))
    return ops, changed


class ReferenceEncoder(FrameEncoder):
    """Ships the surface's recorded copies, then diffs and syncs the
    whole surface on every ascii delta frame."""

    def _delta_ops(self, wire_ops, surface, rows):
        for op in wire_ops:
            apply_op(self._shadow_graphic, op)
        cells, diffed = whole_surface_diff_cells(self._shadow, surface)
        return [*wire_ops, *cells], 0, diffed

    def _sync_shadow(self, surface, rows):
        super()._sync_shadow(surface, range(self.height))


class Capture:
    def __init__(self) -> None:
        self.frames: List[bytes] = []

    def send(self, data: bytes) -> None:
        self.frames.append(data)

    def close(self) -> None:
        pass


# -- scripts -------------------------------------------------------------

_X = st.integers(-3, 20)
_Y = st.integers(-3, 14)
_SIZE = st.integers(0, 5)
_SHIFT = st.integers(-4, 4)

#: The surface writers and drawing calls, small so that a frame writes
#: a few bands of a tall window and a missed mark shows as a missed row.
_DRAW = st.one_of(
    st.tuples(st.just("fill"), _X, _Y, _SIZE, _SIZE,
              st.sampled_from((-1, 0, 1))),
    st.tuples(st.just("text"), _X, _Y, st.text("ab #\té𝄞", max_size=9),
              st.booleans()),
    st.tuples(st.just("line"), _X, _Y, _SHIFT, _SHIFT,
              st.sampled_from(_MODES)),
    st.tuples(st.just("blit"), _X, _Y, st.integers(1, 4), st.integers(1, 3),
              st.integers(0, 4095)),
    st.tuples(st.just("copy"), _X, _Y, st.integers(0, 20),
              st.integers(0, 14), _SHIFT, _SHIFT),
    st.tuples(st.just("child"), _X, _Y, st.integers(0, 20),
              st.integers(0, 14)),
    st.tuples(st.just("put"), _X, _Y, st.sampled_from("xy |"),
              st.sampled_from((-1, 0, 1)), st.sampled_from((-1, 0, 1))),
    st.tuples(st.just("toggle"), _X, _Y),
    st.tuples(st.just("offscreen"), _X, _Y, st.integers(1, 8),
              st.integers(1, 3), st.text("ab%", min_size=1, max_size=8)),
)


def _control(choice, width, height):
    if choice < 8:
        return ("flush",)
    if choice < 10:
        return ("detach",)
    if choice < 12:
        return ("resume",)
    if choice == 12:
        return ("rejoin",)
    return ("resize", width, height)


#: What ends a frame: mostly a flush; sometimes the viewer leaves,
#: resumes where it left off, or rejoins with a keyframe; or a resize.
_CONTROL = st.builds(_control, st.integers(0, 13), st.integers(4, 18),
                     st.integers(2, 12))

#: A script: frames of up to four drawing steps, each ended by a control.
_SCRIPTS = st.lists(st.tuples(st.lists(_DRAW, max_size=4), _CONTROL),
                    max_size=25).map(
    lambda frames: [step for draws, control in frames
                    for step in draws + [control]])


class Twin:
    """One remote ascii window, its capture sink, and its drawable."""

    def __init__(self, encoder_class, width, height, interval, renderer):
        self.window = RemoteWindowSystem("ascii").create_window(
            "twin", width, height)
        self.window._encoder = encoder_class(
            "ascii", width, height, keyframe_interval=interval)
        self.sinks = [Capture()]
        if renderer is not None:
            self.sinks.append(RendererSink(renderer))
        self.attached = False
        self.attach(keyframe=True)
        self.graphic = self.window.graphic()
        self.paint()
        self.window.flush()  # the keyframe: scripts start on deltas

    def paint(self) -> None:
        """Distinct text on every row, so a copy moves something."""
        for y in range(self.window.height):
            self.graphic.draw_string(
                0, y, chr(ord("a") + y) * self.window.width)

    @property
    def capture(self) -> Capture:
        return self.sinks[0]

    def attach(self, keyframe: bool) -> None:
        for sink in self.sinks:
            self.window.attach_sink(sink, keyframe=keyframe)
        self.attached = True

    def detach(self) -> None:
        for sink in self.sinks:
            self.window.detach_sink(sink)
        self.attached = False

    def step(self, step) -> None:
        kind, args = step[0], step[1:]
        window, graphic = self.window, self.graphic
        if kind == "fill":
            x, y, w, h, value = args
            graphic.fill_rect(Rect(x, y, w, h), value)
        elif kind == "text":
            x, y, text, bold = args
            graphic.set_font(_BOLD if bold else _PLAIN)
            graphic.draw_string(x, y, text)
        elif kind == "line":
            x, y, dx, dy, mode = args
            graphic.set_transfer_mode(mode)
            graphic.draw_line(x, y, x + dx, y + dy)
        elif kind == "blit":
            x, y, w, h, bits = args
            bitmap = Bitmap(w, h)
            for i in range(w * h):
                bitmap._bits[i] = (bits >> i) & 1
            graphic.draw_bitmap(bitmap, x, y)
        elif kind == "copy":
            x, y, w, h, dx, dy = args
            graphic.copy_area(Rect(x, y, w, h), dx, dy)
        elif kind == "child":
            self.graphic = window.graphic().child(Rect(*args))
        elif kind == "put":
            x, y, char, inverse, bold = args
            window.surface.put(x, y, char, inverse, bold)
        elif kind == "toggle":
            window.surface.toggle_inverse(*args)
        elif kind == "offscreen":
            x, y, w, h, text = args
            offscreen = AsciiOffscreen(w, h)
            source = offscreen.graphic()
            for row in range(h):
                source.draw_string(row, row, text)
            source.invert_rect(Rect(0, 0, w // 2, h))
            offscreen.copy_to(graphic, x, y)
        elif kind == "flush":
            window.flush()
            self.graphic = window.graphic()
        elif kind == "detach":
            if self.attached:
                self.detach()
        elif kind == "resume":
            if not self.attached:
                self.attach(keyframe=False)
        elif kind == "rejoin":
            if not self.attached:
                self.attach(keyframe=True)
        elif kind == "resize":
            window.resize(*args)
            self.graphic = window.graphic()
            self.paint()
        else:
            raise AssertionError(kind)


def _cells(surface):
    return (surface.width, surface.height, list(surface._chars),
            bytes(surface._inverse), bytes(surface._bold))


@seed(base_seed(0))
@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(12, 18), st.integers(8, 12), st.integers(3, 64),
       _SCRIPTS)
# An unlogged write that a leading copy then moves.
@example(12, 8, 64, [("put", 2, 2, "x", -1, -1),
                     ("copy", 0, 0, 12, 8, 0, 3), ("flush",)])
@example(12, 8, 64, [("offscreen", 1, 1, 4, 2, "ab"),
                     ("copy", 0, 0, 12, 8, 1, -1), ("flush",)])
# A copy made after a write.
@example(12, 8, 64, [("fill", 0, 0, 2, 1, 1),
                     ("copy", 0, 2, 12, 6, 0, 2), ("flush",)])
# A copy dropped with no viewer, then a resume or a rejoin.
@example(12, 8, 64, [("detach",), ("copy", 0, 0, 12, 8, 0, -2),
                     ("flush",), ("resume",), ("flush",)])
@example(12, 8, 64, [("detach",), ("copy", 0, 0, 12, 8, 0, -2),
                     ("flush",), ("rejoin",), ("flush",),
                     ("fill", 0, 0, 1, 1, 1), ("flush",)])
# Many copies with no viewer: the flush drops them all.
@example(12, 8, 64, [("detach",)] + [("copy", 0, 0, 12, 8, 0, -1)] * 1000
         + [("flush",), ("resume",), ("flush",)])
def test_row_bounded_frames_equal_whole_surface_frames(width, height,
                                                      interval, script):
    renderer = RemoteRenderer()
    live = Twin(FrameEncoder, width, height, interval, renderer)
    reference = Twin(ReferenceEncoder, width, height, interval, None)
    for number, step in enumerate(list(script) + [("resume",), ("flush",)]):
        shipped = len(live.capture.frames)
        live.step(step)
        reference.step(step)
        assert live.capture.frames == reference.capture.frames, (
            f"frame bytes diverged at step {number} {step!r}")
        assert _cells(live.window.surface) == _cells(
            reference.window.surface)
        if step[0] == "flush":
            assert live.window.surface._copies == []
        if (len(live.capture.frames) > shipped
                or (step[0] == "flush" and live.attached)):
            assert _cells(renderer.surface) == _cells(live.window.surface), (
                f"renderer diverged at step {number} {step!r}")
    assert live.window._encoder.cell_diff_cells \
        == reference.window._encoder.cell_diff_cells
