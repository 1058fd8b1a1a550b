"""Row-slice ascii device kernels against the per-cell reference.

The ascii port writes fills, text runs and offscreen blits one row at a
time with slice assignment, and the encoder skips rows whose slices
compare equal.  Each test here keeps the per-cell formulation (one
bounds-checked ``CellSurface.put`` per cell, a full per-cell diff scan)
as the reference and requires the kernel to leave the same surface, or
return the same ops, on random inputs: attributes already set, rects
and clips that are empty, negative or run past the surface, and tabs
split by a clip edge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics.fontdesc import BOLD, FontDesc
from repro.graphics.geometry import Point, Rect
from repro.remote import wire
from repro.remote.encoder import diff_cells
from repro.wm.ascii_ws import AsciiGraphic, AsciiOffscreen, CellSurface

PLAIN = FontDesc("andy", 12)
BOLD_FONT = FontDesc("andy", 12, (BOLD,))

coords = st.integers(min_value=-12, max_value=24)
extents = st.integers(min_value=-3, max_value=24)
rects = st.builds(Rect, coords, coords, extents, extents)


@st.composite
def surfaces(draw, width=None, height=None):
    """A surface of random chars with inverse and bold set at random."""
    width = draw(st.integers(1, 14)) if width is None else width
    height = draw(st.integers(1, 9)) if height is None else height
    size = width * height
    surface = CellSurface(width, height)
    surface._chars[:] = draw(st.lists(st.sampled_from("ab #-|+%"),
                                      min_size=size, max_size=size))
    surface._inverse[:] = bytes(draw(st.lists(st.integers(0, 1),
                                              min_size=size, max_size=size)))
    surface._bold[:] = bytes(draw(st.lists(st.integers(0, 1),
                                           min_size=size, max_size=size)))
    return surface


def clone(surface: CellSurface) -> CellSurface:
    twin = CellSurface(surface.width, surface.height)
    twin._chars[:] = surface._chars
    twin._inverse[:] = surface._inverse
    twin._bold[:] = surface._bold
    return twin


def cells(surface: CellSurface):
    return (surface._chars, bytes(surface._inverse), bytes(surface._bold))


# -- the per-cell reference -----------------------------------------------


def reference_fill(surface, rect, value):
    for y in range(rect.top, rect.bottom):
        for x in range(rect.left, rect.right):
            if value < 0:
                surface.toggle_inverse(x, y)
            elif value:
                surface.put(x, y, "#", inverse=0)
            else:
                surface.put(x, y, " ", inverse=0, bold=0)


def reference_text(surface, clip, x, y, text, font):
    if y < clip.top or y >= clip.bottom:
        return
    bold = 1 if font.bold else 0
    col = x
    for char in text:
        if char == "\t":
            for _ in range(4):
                if clip.left <= col < clip.right:
                    surface.put(col, y, " ", inverse=0, bold=bold)
                col += 1
            continue
        if clip.left <= col < clip.right:
            surface.put(col, y, char, inverse=0, bold=bold)
        col += 1


def reference_copy(src, dst, origin, clip, x, y):
    device = Rect(x, y, src.width, src.height).offset(origin.x, origin.y)
    visible = device.intersection(clip)
    sx0 = visible.left - device.left
    sy0 = visible.top - device.top
    for row in range(visible.height):
        for col in range(visible.width):
            sx, sy = sx0 + col, sy0 + row
            dst.put(visible.left + col, visible.top + row, src.char_at(sx, sy),
                    inverse=1 if src.inverse_at(sx, sy) else 0,
                    bold=1 if src.bold_at(sx, sy) else 0)


def reference_diff(old, new, max_gap=4):
    ops, changed = [], 0
    width = new.width
    for y in range(new.height):
        base = y * width
        row_changed = [
            x for x in range(width)
            if (old._chars[base + x] != new._chars[base + x]
                or old._inverse[base + x] != new._inverse[base + x]
                or old._bold[base + x] != new._bold[base + x])
        ]
        if not row_changed:
            continue
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
            ops.append(("cells", y, x0,
                        "".join(new._chars[base + x0:base + x1 + 1]),
                        wire.pack_bits(new._inverse[base + x0:base + x1 + 1]),
                        wire.pack_bits(new._bold[base + x0:base + x1 + 1])))
    return ops, changed


# -- kernels vs reference -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(surfaces(), rects, st.sampled_from([-1, 0, 1]))
def test_fill_rect_matches_per_cell(surface, rect, value):
    expected = clone(surface)
    reference_fill(expected, rect, value)
    AsciiGraphic(surface).device_fill_rect(rect, value)
    assert cells(surface) == cells(expected)


@settings(max_examples=150, deadline=None)
@given(surfaces(), rects, coords, st.integers(-3, 12),
       st.text(alphabet="ab\t ", max_size=12),
       st.sampled_from([PLAIN, BOLD_FONT]))
def test_draw_text_matches_per_cell(surface, clip, x, y, text, font):
    expected = clone(surface)
    reference_text(expected, clip, x, y, text, font)
    graphic = AsciiGraphic(surface)
    # Replay sets the recorded clip verbatim (``batch.apply_op``), so it
    # may run past the surface on any side.
    graphic.clip = clip
    graphic.device_draw_text(x, y, text, font)
    assert cells(surface) == cells(expected)


def test_draw_text_tab_split_by_clip_edge():
    surface = CellSurface(10, 1)
    graphic = AsciiGraphic(surface)
    graphic.clip = Rect(3, 0, 4, 1)
    graphic.device_draw_text(0, 0, "a\tb", BOLD_FONT)
    assert "".join(surface._chars) == "     b    "
    assert bytes(surface._bold) == b"\x00" * 3 + b"\x01" * 3 + b"\x00" * 4
    graphic.device_draw_text(1, 0, "\tbc", PLAIN)
    assert "".join(surface._chars) == "     bc   "
    assert bytes(surface._bold) == bytes(10)


@settings(max_examples=150, deadline=None)
@given(st.data(), surfaces(), coords, coords, coords, coords, rects)
def test_copy_to_matches_per_cell(data, target, x, y, ox, oy, clip):
    offscreen = AsciiOffscreen(data.draw(st.integers(1, 10)),
                               data.draw(st.integers(1, 7)))
    offscreen.surface = data.draw(surfaces(offscreen.width, offscreen.height))
    expected = clone(target)
    reference_copy(offscreen.surface, expected, Point(ox, oy), clip, x, y)
    graphic = AsciiGraphic(target, origin=Point(ox, oy))
    graphic.clip = clip  # may run past the destination surface
    offscreen.copy_to(graphic, x, y)
    assert cells(target) == cells(expected)


def test_copy_to_clamps_to_destination_surface():
    # A clip and offset running off the top-left of the destination:
    # an unclamped slice index would wrap to the far end of the row.
    offscreen = AsciiOffscreen(4, 2)
    offscreen.graphic().device_fill_rect(Rect(0, 0, 4, 2), 1)
    target = CellSurface(6, 3)
    graphic = AsciiGraphic(target)
    graphic.clip = Rect(-5, -5, 20, 20)
    offscreen.copy_to(graphic, -2, -1)
    assert target.lines() == ["##    ", "      ", "      "]


@st.composite
def surface_pairs(draw):
    old = draw(surfaces())
    new = clone(old)
    size = old.width * old.height
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        which = draw(st.integers(0, 2))
        if which == 0:
            new._chars[i] = draw(st.sampled_from("ab #"))
        elif which == 1:
            new._inverse[i] ^= 1
        else:
            new._bold[i] ^= 1
    return old, new


@settings(max_examples=150, deadline=None)
@given(surface_pairs(), st.integers(0, 6))
def test_diff_cells_matches_unfiltered_scan(pair, max_gap):
    old, new = pair
    assert diff_cells(old, new, max_gap) == reference_diff(old, new, max_gap)
