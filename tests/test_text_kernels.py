"""Per-stretch text kernels against the per-character reference.

Text is clipped, wrapped, encoded and decoded a stretch at a time:
``Graphic.draw_string`` clips a fixed-advance string with two
divisions, ``TextView._wrap_range`` places whole runs of plain glyphs
in slices, the datastream codec escapes and unescapes whole lines with
string operations, and the remote renderer applies a run of cells or
pixel bits as one row slice.  Each test here keeps the per-character
formulation these replaced as the reference and requires the kernel to
give the same result on random inputs: both backends, tabs, embeds,
style runs that change the glyph width, clips that are empty, negative
or run past the surface, every decoder error, and wire ops off the
surface.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components.text import TextData, TextView
from repro.components.text.textdata import OBJECT_CHAR, _decode_content_line
from repro.components.text.textview import _EmbedLine, _TextLine
from repro.core import InteractionManager
from repro.core.datastream import DataStreamError, DataStreamWriter
from repro.graphics.fontdesc import BOLD, FontDesc
from repro.graphics.geometry import Point, Rect
from repro.graphics.image import Bitmap
from repro.remote import wire
from repro.remote.renderer import _apply_cells, _apply_rowbits
from repro.wm import AsciiWindowSystem, RasterWindowSystem
from repro.wm.ascii_ws import AsciiGraphic, CellSurface
from repro.wm.raster_ws import RasterGraphic, RequestCounter

from tests.test_ascii_kernels import cells, clone, surfaces

FONTS = [FontDesc("andy", 12), FontDesc("andy", 12, (BOLD,)),
         FontDesc("andy", 24), FontDesc("andy", 40)]
STYLE_NAMES = ["bigger", "smaller", "chapter", "indent", "quotation",
               "center", "bold"]


# -- the per-character references -------------------------------------------


def reference_draw_string(graphic, x, y, text):
    """The glyph-at-a-time clip walk: the text op it emits, if any."""
    if not text:
        return []
    metrics = graphic.font_metrics(graphic.state.font)
    clip = graphic.clip
    device_y = y + graphic.origin.y
    if device_y >= clip.bottom or device_y + metrics.height <= clip.top:
        return []
    device_x = x + graphic.origin.x
    while text:
        advance = metrics.char_width * (4 if text[0] == "\t" else 1)
        if device_x + advance > clip.left:
            break
        device_x += advance
        text = text[1:]
    if not text or device_x >= clip.right:
        return []
    fit, run_x = 0, device_x
    while fit < len(text) and run_x < clip.right:
        run_x += metrics.char_width * (4 if text[fit] == "\t" else 1)
        fit += 1
    return [(device_x, device_y, text[:fit], graphic.state.font)]


def reference_wrap_range(view, start, end, final_trailing):
    """The character-at-a-time wrap state machine."""
    data = view.data
    out, out_starts = [], []
    base_metrics = view._metrics(view.base_font)
    base_height = base_metrics.height
    wrap_unit = base_metrics.char_width
    text = data.text(start, end)
    current, current_start, current_width = [], start, 0
    line_height = base_height
    indent, centered = view._paragraph_props(start)
    avail = max(1, view.width - indent - 1)

    def flush(next_start):
        nonlocal current, current_start, current_width, line_height
        out.append(_TextLine("".join(current), indent, centered,
                             max(1, line_height)))
        out_starts.append(current_start)
        current, current_start, current_width = [], next_start, 0
        line_height = base_height

    for run_start, run_end, styles in data.runs(start, end):
        metrics = view._metrics(view.font_for_styles(styles))
        run_indent = sum(style.indent for style in styles)
        run_centered = any(style.centered for style in styles)
        for pos in range(run_start, run_end):
            char = text[pos - start]
            if not current:
                current_start = pos
                indent, centered = run_indent, run_centered
                avail = max(1, view.width - indent - 1)
            if char == "\n":
                flush(pos + 1)
                continue
            if char == OBJECT_CHAR:
                embed = data.embedded_at(pos)
                if current:
                    flush(pos + 1)
                if embed is not None:
                    child = view._view_for_embed(embed)
                    offer_w = max(1, view.width - indent - 1)
                    offer_h = max(1, view.height - 1) if view.height else 8
                    w, h = child.desired_size(offer_w, offer_h)
                    out.append(_EmbedLine(embed, indent, max(1, w), max(1, h)))
                    out_starts.append(pos)
                continue
            advance = metrics.char_width * (4 if char == "\t" else 1)
            if current and current_width + advance > avail * wrap_unit:
                flush(pos)
                indent, centered = run_indent, run_centered
                avail = max(1, view.width - indent - 1)
            current.append(char)
            current_width += advance
            line_height = max(line_height, metrics.height)
    if final_trailing:
        out.append(_TextLine("".join(current), indent, centered,
                             max(1, line_height)))
        out_starts.append(current_start)
    return out, out_starts


def reference_decode(raw, lineno):
    out, i, continued = [], 0, False
    while i < len(raw):
        char = raw[i]
        if char == "\\":
            if i + 1 < len(raw) and raw[i + 1] == "\\":
                out.append("\\")
                i += 2
                continue
            if i == len(raw) - 1:
                continued = True
                i += 1
                continue
            raise DataStreamError(
                f"stray backslash in content line {raw!r}", lineno)
        if char == "@":
            if i + 1 < len(raw) and raw[i + 1] == "@":
                out.append("@")
                i += 2
                continue
            raise DataStreamError(f"unknown text directive in {raw!r}", lineno)
        out.append(char)
        i += 1
    return ("".join(out), continued)


def reference_segments(data):
    embeds_by_pos = {embed.pos: embed for embed in data.embeds()}
    run_start, run = 0, []
    for pos, char in enumerate(data.text()):
        if char == OBJECT_CHAR:
            if run:
                yield ("text", run_start, "".join(run))
                run = []
            embed = embeds_by_pos.get(pos)
            if embed is not None:
                yield ("embed", pos, embed)
            run_start = pos + 1
        else:
            if not run:
                run_start = pos
            run.append(char)
    if run:
        yield ("text", run_start, "".join(run))


_ESCAPES = {"\\": "\\\\", "@": "@@"}


def reference_write_body(data, writer):
    """The one-unit-per-character body writer."""
    for span in data.spans:
        if not span.is_empty():
            writer.write_body_line(
                f"@style {span.style.name} {span.start} {span.length}")
    open_units = []

    def flush(continue_line):
        column, buffer = 0, []
        for unit in open_units:
            if column + len(unit) > 76:
                writer.write_body_line("".join(buffer) + "\\")
                buffer, column = [], 0
            buffer.append(unit)
            column += len(unit)
        suffix = "\\" if continue_line else ""
        writer.write_body_line("".join(buffer) + suffix)
        open_units.clear()

    wrote_anything = False
    for kind, _pos, payload in reference_segments(data):
        if kind == "text":
            pieces = payload.split("\n")
            for index, piece in enumerate(pieces):
                for char in piece:
                    open_units.append(_ESCAPES.get(char, char))
                if index < len(pieces) - 1:
                    flush(False)
                    wrote_anything = True
        else:
            flush(True)
            wrote_anything = True
            object_id = writer.write_object(payload.data)
            writer.write_view_ref(payload.view_type, object_id)
    if open_units or not wrote_anything:
        flush(True)


def reference_unpack_bits(data, count):
    out = bytearray(count)
    for i in range(count):
        if data[i >> 3] & (0x80 >> (i & 7)):
            out[i] = 1
    return out


def reference_apply_rowbits(fb, op):
    _, y, x0, count, packed = op
    for i, bit in enumerate(reference_unpack_bits(packed, count)):
        fb.set_safe(x0 + i, y, bit)


def reference_apply_cells(surface, op):
    _, y, x0, chars, inverse, bold = op
    inv_bits = reference_unpack_bits(inverse, len(chars))
    bold_bits = reference_unpack_bits(bold, len(chars))
    for i, char in enumerate(chars):
        surface.put(x0 + i, y, char, inverse=inv_bits[i], bold=bold_bits[i])


# -- draw_string --------------------------------------------------------------


def make_graphic(backend, origin, clip, font):
    if backend == "ascii":
        graphic = AsciiGraphic(CellSurface(16, 6), origin=origin)
    else:
        graphic = RasterGraphic(Bitmap(160, 60), RequestCounter(),
                                origin=origin)
    graphic.clip = clip  # may be empty, negative or run past the surface
    graphic.set_font(font)
    return graphic


def emitted(graphic, x, y, text):
    """The text ops ``draw_string`` hands the device."""
    ops = []
    graphic._emit_text = lambda *op: ops.append(op)
    graphic.draw_string(x, y, text)
    return ops


@st.composite
def clipped_strings(draw):
    backend = draw(st.sampled_from(["ascii", "raster"]))
    # Raster coordinates span a few glyph widths so clips split glyphs.
    coords = (st.integers(-12, 24) if backend == "ascii"
              else st.integers(-80, 200))
    extents = (st.integers(-3, 24) if backend == "ascii"
               else st.integers(-10, 200))
    font = draw(st.sampled_from(FONTS))
    origin = Point(draw(coords), draw(coords))
    x, y = draw(coords), draw(coords)
    graphic = make_graphic(backend, origin, Rect(0, 0, 0, 0), font)
    width = graphic.font_metrics(font).char_width
    # Horizontal clip edges fall anywhere, or on a glyph boundary of an
    # untabbed string, or one unit either side of one.
    near_glyph = st.builds(lambda k, d: x + origin.x + k * width + d,
                           st.integers(-2, 20), st.integers(-1, 1))
    left = draw(st.one_of(coords, near_glyph))
    right = draw(st.one_of(st.builds(lambda w: left + w, extents),
                           near_glyph))
    # The vertical extent crosses the text's row more often than not.
    top = draw(st.one_of(coords, st.just(y + origin.y)))
    graphic.clip = Rect(left, top, right - left, draw(extents))
    text = draw(st.text(alphabet="ab\t ", max_size=16))
    return graphic, x, y, text


@settings(max_examples=300, deadline=None)
@given(clipped_strings())
def test_draw_string_matches_glyph_walk(case):
    graphic, x, y, text = case
    expected = reference_draw_string(graphic, x, y, text)
    assert emitted(graphic, x, y, text) == expected


@pytest.mark.parametrize("backend", ["ascii", "raster"])
def test_draw_string_keeps_a_tab_split_by_the_clip(backend):
    graphic = make_graphic(backend, Point(0, 0), Rect(0, 0, 1, 1), FONTS[0])
    width = graphic.font_metrics(FONTS[0]).char_width
    # The tab spans glyph columns 1-4; the clip starts inside it and
    # ends one pixel (or cell) into "c", so the tab and "bc" draw and
    # "d" does not.
    graphic.clip = Rect(2 * width, 0, 4 * width + 1, 40)
    assert emitted(graphic, 0, 0, "a\tbcd") == [
        (width, 0, "\tbc", FONTS[0])]
    if backend == "raster":
        # A clip splitting one glyph still draws that glyph.
        graphic.clip = Rect(width // 2, 0, 1, 40)
        assert emitted(graphic, 0, 0, "abc") == [(0, 0, "a", FONTS[0])]
    # A glyph ending exactly on the clip's left edge is wholly outside.
    graphic.clip = Rect(width, 0, 40 * width, 40)
    assert emitted(graphic, 0, 0, "a\tb") == [(width, 0, "\tb", FONTS[0])]
    assert emitted(graphic, 0, 0, "ab") == [(width, 0, "b", FONTS[0])]


# -- _wrap_range --------------------------------------------------------------


@st.composite
def documents(draw, alphabet="ab \t\n"):
    """A TextData of text pieces, embeds and overlapping style spans."""
    data = TextData()
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            data.insert_object(data.length,
                               TextData(draw(st.text("xy\n", max_size=6))))
        else:
            data.insert(data.length, draw(st.text(alphabet, max_size=40)))
    for _ in range(draw(st.integers(0, 4))):
        if data.length:
            begin = draw(st.integers(0, data.length - 1))
            stop = draw(st.integers(begin + 1, data.length))
            data.add_style(begin, stop, draw(st.sampled_from(STYLE_NAMES)))
    return data


def line_signature(lines, starts):
    signature = []
    for line, start in zip(lines, starts):
        if isinstance(line, _EmbedLine):
            signature.append(("embed", start, id(line.embed), line.indent,
                              line.width, line.height))
        else:
            signature.append(("text", start, line.text, line.indent,
                              line.centered, line.height))
    return signature


@settings(max_examples=200, deadline=None)
@given(documents(), st.sampled_from(["ascii", "raster"]),
       st.integers(1, 60), st.sampled_from([12, 18]), st.booleans(),
       st.data())
def test_wrap_range_matches_char_walk(data, backend, width, base_size,
                                      final_trailing, draw):
    ws = AsciiWindowSystem() if backend == "ascii" else RasterWindowSystem()
    im = InteractionManager(ws, title="wrap", width=width, height=12)
    view = TextView(data)
    # An 18-point base puts "bigger" and "chapter" text at a wider
    # raster glyph than the body, so style runs change char_width.
    view.base_font = FontDesc("andy", base_size)
    im.set_child(view)
    start = draw.draw(st.integers(0, data.length))
    end = draw.draw(st.integers(start, data.length))
    for lo, hi in ((0, data.length), (start, end)):
        expected = reference_wrap_range(view, lo, hi, final_trailing)
        actual = view._wrap_range(lo, hi, final_trailing)
        assert line_signature(*actual) == line_signature(*expected)


def test_wrap_range_puts_an_overwide_glyph_on_an_empty_line():
    im = InteractionManager(RasterWindowSystem(), title="wrap", width=3,
                            height=12)
    data = TextData("ab\tc")
    data.add_style(0, 2, "chapter")
    view = TextView(data)
    view.base_font = FontDesc("andy", 18)  # chapter text: 2x glyphs
    im.set_child(view)
    lines, starts = view._wrap_range(0, data.length, True)
    assert [line.text for line in lines] == ["a", "b", "\t", "c"]
    assert starts == [0, 1, 2, 3]


# -- the datastream codec -----------------------------------------------------


def outcome(decode, raw, lineno):
    try:
        return ("ok", decode(raw, lineno))
    except DataStreamError as error:
        return ("error", str(error), error.line)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="ab\\@ \t", max_size=14), st.integers(0, 500))
def test_decode_content_line_matches_char_walk(raw, lineno):
    assert (outcome(_decode_content_line, raw, lineno)
            == outcome(reference_decode, raw, lineno))


@pytest.mark.parametrize("raw", [
    "a\\b", "\\x", "@", "a@", "@b", "@@@", "\\\\\\x", "ok\\\\@x\\",
    "a\\\\\\", "@@\\\\", "\\",
])
def test_decode_content_line_error_cases(raw):
    assert (outcome(_decode_content_line, raw, 7)
            == outcome(reference_decode, raw, 7))


def reference_check_transportable(text):
    for char in text:
        code = ord(char)
        if code > 126 or (code < 32 and char != "\t"):
            raise DataStreamError(
                f"non-transportable character {char!r} in body line "
                f"{text!r}; the external representation is printable "
                "7-bit ASCII")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("\t\n\x1f ~\x7f"),
                                  st.characters(max_codepoint=0x2FF)),
               max_size=12))
def test_write_body_line_refuses_what_the_char_walk_refuses(text):
    writer = DataStreamWriter(io.StringIO())
    expected = outcome(lambda raw, _line: reference_check_transportable(raw),
                       text, 0)
    actual = outcome(lambda raw, _line: writer.write_body_line(raw), text, 0)
    assert actual == expected


def written(write_body, data):
    writer = DataStreamWriter(io.StringIO())
    write_body(data, writer)
    return writer.getvalue()


@settings(max_examples=200, deadline=None)
@given(documents(alphabet="a\\@ \t\n"),
       st.lists(st.tuples(st.integers(0, 120), st.sampled_from("a\\@")),
                max_size=3))
def test_write_body_and_segments_match_char_walk(data, runs):
    # Long runs of one character put escape pairs on every wrap column.
    for count, char in runs:
        data.insert(data.length, char * count)
    assert list(data.segments()) == list(reference_segments(data))
    assert (written(TextData.write_body, data)
            == written(reference_write_body, data))


def test_segments_skip_a_placeholder_with_no_embed():
    data = TextData("ab")
    data.insert_object(1, TextData("x"))
    data._chars.append(OBJECT_CHAR)  # a placeholder no embed owns
    assert list(data.segments()) == list(reference_segments(data))
    assert (written(TextData.write_body, data)
            == written(reference_write_body, data))


# -- the renderer's row runs --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=6), st.data())
def test_unpack_bits_matches_bit_walk(packed, draw):
    count = draw.draw(st.integers(0, 8 * len(packed)))
    assert wire.unpack_bits(packed, count) == reference_unpack_bits(packed,
                                                                    count)


def test_unpack_bits_refuses_short_data():
    with pytest.raises(wire.WireError):
        wire.unpack_bits(b"\xff", 9)


@settings(max_examples=300, deadline=None)
@given(surfaces(), st.integers(-3, 12), st.integers(-20, 24),
       st.text(alphabet="ab #", max_size=20), st.data())
def test_apply_cells_matches_per_cell(surface, y, x0, chars, draw):
    bits = st.lists(st.integers(0, 1), min_size=len(chars),
                    max_size=len(chars))
    op = ("cells", y, x0, chars, wire.pack_bits(draw.draw(bits)),
          wire.pack_bits(draw.draw(bits)))
    expected = clone(surface)
    reference_apply_cells(expected, op)
    _apply_cells(surface, op)
    assert cells(surface) == cells(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14), st.integers(1, 9), st.integers(-3, 12),
       st.integers(-20, 24), st.data())
def test_apply_rowbits_matches_per_pixel(width, height, y, x0, draw):
    fb = Bitmap(width, height)
    fb._bits[:] = bytes(draw.draw(st.lists(st.integers(0, 1),
                                           min_size=width * height,
                                           max_size=width * height)))
    bits = draw.draw(st.lists(st.integers(0, 1), max_size=20))
    op = ("rowbits", y, x0, len(bits), wire.pack_bits(bits))
    expected = fb.copy()
    reference_apply_rowbits(expected, op)
    _apply_rowbits(fb, op)
    assert fb._bits == expected._bits
