"""The text buffer's gap and the text view's bisections against references.

``TextData`` keeps its characters as code points with a gap at the last
edit; every read must see the buffer a plain string would hold, through
inserts, deletes, embeds, gap moves in both directions, gap growth, a
large delete that cuts the gap back, a buffer read from a datastream,
and characters outside ASCII (an astral one and lone surrogates among
them).  ``find`` and ``rfind`` must agree with ``str.find`` and
``str.rfind`` wherever the gap lies, and the caret's line bounds must
not read the whole buffer.  ``TextView._damage_row_for`` and
``_scroll_dot_visible`` find their line by bisection; each test here
keeps the per-row walk they replaced as the reference.

Seeds derive from :mod:`tests.randutil`, so ``ANDREW_TEST_SEED``
reseeds every script.
"""

import pytest

from tests.randutil import describe_seed, seeded_rng

from repro.class_system.observable import ChangeRecord
from repro.components.text import TextData, TextView
from repro.components.text.textdata import OBJECT_CHAR
from repro.core import InteractionManager, datastream
from repro.wm import AsciiWindowSystem, RasterWindowSystem

_PIECES = ("a", "xy", "\n", "word ", "tab\tstop\n", "q" * 40, "@\\")
#: Pieces outside ASCII: two BMP characters and an astral one.
_WIDE = ("é", "€", "𝄞", "caf\u00e9 𝄞\n")
#: The characters the searches look for.
_NEEDLES = ("\n", OBJECT_CHAR, "q", "é", "𝄞")


def assert_reads_like(data, model, rng):
    """Every reader of ``data`` agrees with the string ``model``."""
    assert data.length == len(model)
    assert data.text() == model
    assert data.plain_text() == model.replace(OBJECT_CHAR, "")
    for _ in range(6):
        a = rng.randint(-3, len(model) + 3)
        b = rng.randint(-3, len(model) + 3)
        assert data.text(a, b) == model[a:b]
        assert data.text(a) == model[a:]
    if model:
        pos = rng.randrange(-len(model), len(model))
        assert data.char_at(pos) == model[pos]
    for bad in (len(model), -len(model) - 1):
        with pytest.raises(IndexError):
            data.char_at(bad)
    start = rng.randint(0, len(model))
    end = rng.randint(start, len(model))
    for char in _NEEDLES:
        assert data.find(char, start, end) == model.find(char, start, end)


def _edit(rng, data, model, pieces):
    """One random edit on both the buffer and the model."""
    roll = rng.random()
    pos = rng.randint(0, len(model))
    if roll < 0.45 or not model:
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 3)))
        data.insert(pos, text)
        return model[:pos] + text + model[pos:]
    if roll < 0.55:
        data.insert_object(pos, TextData("embedded"))
        return model[:pos] + OBJECT_CHAR + model[pos:]
    if roll < 0.65:  # a typing burst: one key at a time in one place
        for char in "typing":
            data.insert(pos, char)
            model = model[:pos] + char + model[pos:]
            pos += 1
        return model
    if roll < 0.75 and len(model) > 100:  # wider than the gap's cap
        pos = rng.randint(0, len(model) - 100)
        length = rng.randint(80, len(model) - pos)
    else:
        pos = rng.randrange(len(model))
        length = rng.randint(1, min(8, len(model) - pos))
    data.delete(pos, length)
    return model[:pos] + model[pos + length:]


@pytest.mark.parametrize("script", range(12))
def test_gap_buffer_reads_like_a_string(script):
    # Scripts 8-11 add characters outside ASCII.  The datastream carries
    # printable 7-bit ASCII only, so only scripts 0-7 read one back.
    wide = script >= 8
    pieces = _PIECES + _WIDE if wide else _PIECES
    rng = seeded_rng(4000 + script)
    model = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
    data = TextData(model)
    for step in range(120):
        model = _edit(rng, data, model, pieces)
        context = (describe_seed(4000 + script), step)
        assert data.text() == model, context
        if step % 10 == 0:
            assert_reads_like(data, model, rng)
        if step == 60 and not wide:
            # A buffer read from the datastream starts with no gap.
            data = datastream.read_document(datastream.write_document(data))
            assert_reads_like(data, model, rng)
    assert_reads_like(data, model, rng)
    # The cut-back keeps a large deletion from leaving its slots behind.
    assert len(data._chars) - data.length <= 4 * 16


def test_gap_moves_far_both_ways_and_grows_by_the_step():
    text = "".join(chr(ord("a") + i % 26) for i in range(10_000))
    data = TextData(text)
    for pos in (9_999, 1, 5_000, 0, 10_000, 3):
        data.insert(pos, "!")
        text = text[:pos] + "!" + text[pos:]
        assert data.text() == text
    # A full gap grows by the step, so a typing run fills it in place.
    size = len(data._chars)
    gap = data._hi - data._lo
    for char in "x" * gap:
        data.insert(4, char)
    assert len(data._chars) == size
    data.insert(4, "y")
    assert len(data._chars) == size + 16 + 1


def test_any_str_round_trips():
    # Lone surrogates are valid ``str`` characters; a surrogate pair
    # written as two of them stays two characters.
    text = "a\ud800b\udfff\ud834\udd1e𝄞é\n€"
    data = TextData(text)
    data.insert(3, "\udc80")
    text = text[:3] + "\udc80" + text[3:]
    assert data.length == len(text)
    assert data.text() == text
    assert [data.char_at(i) for i in range(len(text))] == list(text)
    for char in ("\ud800", "\udd1e", "𝄞", "€"):
        assert data.find(char, 0, len(text)) == text.find(char)


def test_find_and_rfind_match_str_with_the_gap_anywhere():
    rng = seeded_rng(4200)
    data, model = TextData(), ""
    # A run longer than rfind's first windows, so they have to widen.
    for piece in ["q" * 300] + [rng.choice(_PIECES + _WIDE + (OBJECT_CHAR,))
                                for _ in range(40)]:
        if piece == OBJECT_CHAR:
            data.insert_object(rng.randint(0, len(model)), TextData("e"))
        else:
            data.insert(data.length, piece)
        model = data.text()
    size = len(model)
    for gap in range(size + 1):
        # An insert and a delete at ``gap`` leave the gap there.
        data.insert(gap, "!")
        data.delete(gap, 1)
        assert data._lo == gap
        ranges = [(0, size), (0, gap), (gap, size)]
        ranges += [sorted((rng.randint(0, size), rng.randint(0, size)))
                   for _ in range(2)]
        for start, end in ranges:
            for char in _NEEDLES:
                context = (describe_seed(4200), gap, start, end, char)
                assert data.find(char, start, end) == \
                    model.find(char, start, end), context
                assert data.rfind(char, start, end) == \
                    model.rfind(char, start, end), context


def test_line_bounds_read_only_the_caret_line():
    # The E7 document: 2,000 paragraphs, 104k characters.
    data = TextData("\n".join(
        f"paragraph {i:04d}: the quick brown fox" + " jumps" * (i % 40)
        for i in range(2000)))
    im = InteractionManager(AsciiWindowSystem(), width=80, height=24)
    view = TextView(data)
    im.set_child(view)
    im.process_events()
    model = data.text()
    read = []
    whole_text = data.text

    def counting_text(start=0, end=None):
        got = whole_text(start, end)
        read.append(len(got))
        return got

    data.text = counting_text
    for pos in (0, 1, data.length // 2, model.find("\n", 50_000),
                model.find("\n", 50_000) + 1, data.length - 1, data.length):
        view.set_dot(pos)
        read.clear()
        start, end = view._line_bounds()
        assert start == model.rfind("\n", 0, pos) + 1
        newline = model.find("\n", pos)
        assert end == (len(model) if newline < 0 else newline)
        # A line is at most 270 characters; the whole buffer is 100k.
        assert sum(read) <= 1_000, (pos, read)
    del data.text


def test_edits_after_read_body_keep_embeds_and_styles():
    data = TextData("one\ntwo three\nfour")
    data.insert_object(4, TextData("inner"))
    data.add_style(5, 8, "bold")
    copy = datastream.read_document(datastream.write_document(data))
    copy.insert(copy.length, "!")
    copy.insert(0, ">")
    copy.delete(2, 1)
    assert copy.text() == ">oe\n" + OBJECT_CHAR + "two three\nfour!"
    assert [embed.pos for embed in copy.embeds()] == [4]
    assert copy.char_at(4) == OBJECT_CHAR
    assert [(s.start, s.end) for s in copy.spans] == [(5, 8)]


# -- the bisections against the per-row walks --------------------------------


def reference_damage_row(view, change):
    """The per-row walk ``_damage_row_for`` replaced."""
    if change.what not in ("insert", "delete", "style") or not isinstance(
        change.where, int
    ):
        return None
    lines, starts = view._lines, view._starts
    n = len(lines)
    if not n or view._top >= n:
        return None
    where = change.where
    if where < starts[view._top]:
        return None
    y = 0
    for index in range(view._top, n):
        if y >= view.height:
            return view.height
        if where <= starts[index] + len(lines[index].text) or index == n - 1:
            return y
        y += lines[index].height
    return view.height


def reference_scroll_top(view, index, top):
    """The line-at-a-time walk ``_scroll_dot_visible`` replaced."""
    if index < top:
        return index
    prefix = view._prefix
    window = max(1, view.height)
    while top < index and prefix[index] - prefix[top] >= window:
        top += 1
    return top


def _wrapped_document(rng):
    words = ("a", "toolkit", "view", "of", "the", "data", "tab\tstop")
    paragraphs = []
    for _ in range(rng.randint(1, 30)):
        count = rng.choice((0, 2, 6, 30))
        paragraphs.append(" ".join(rng.choice(words) for _ in range(count)))
    data = TextData("\n".join(paragraphs))
    for _ in range(rng.randint(0, 3)):
        data.insert_object(rng.randint(0, data.length), TextData("block"),
                           "textview")
    if data.length:
        start = rng.randrange(data.length)
        data.add_style(start, min(data.length, start + 20), "bigger")
    return data


@pytest.mark.parametrize("backend,size", [
    (AsciiWindowSystem, (30, 8)), (RasterWindowSystem, (180, 64))])
def test_damage_row_bisection_matches_row_walk(backend, size):
    for script in range(12):
        rng = seeded_rng(4100 + script)
        im = InteractionManager(backend(), width=size[0], height=size[1])
        data = _wrapped_document(rng)
        view = TextView(data)
        im.set_child(view)
        im.process_events()
        for _ in range(6):
            view.set_scroll_pos(rng.randint(0, view.scroll_total()))
            view.ensure_layout()
            for where in range(-1, data.length + 2):
                for what in ("insert", "delete", "style", "embed"):
                    change = ChangeRecord(data, what, where, 1)
                    assert view._damage_row_for(change) == \
                        reference_damage_row(view, change), (
                            describe_seed(4100 + script), where, what)


def test_scroll_to_the_end_lands_where_the_walk_did():
    # The E7 document: 2,000 one-line paragraphs, some wrapped.
    data = TextData("\n".join(
        f"paragraph {i:04d}: the quick brown fox" + " jumps" * (i % 7)
        for i in range(2000)))
    im = InteractionManager(AsciiWindowSystem(), width=40, height=12)
    view = TextView(data)
    im.set_child(view)
    im.process_events()
    for pos in (data.length, data.length // 2, 0, data.length - 30,
                data.length):
        top = view._top
        expected = reference_scroll_top(view, view._line_index_of(pos), top)
        view.set_dot(pos)
        assert view._top == expected
    assert view._top > 1900
