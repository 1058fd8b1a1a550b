"""Wire-codec conformance: round-trip fidelity and hostile input.

The two halves of the codec contract (mirroring the salvage suite's
corruption fuzzer, ``tests/test_salvage.py``):

* every encodable frame decodes back **bit-exact** — seeded random op
  lists over both targets, including interned strings/fonts/bitmaps
  and delta ``ref`` runs;
* every malformed input — truncated at *any* byte, byte-flipped,
  garbage — raises the typed :class:`~repro.remote.wire.WireError`,
  never hangs, never leaks a foreign exception; and the stream-level
  renderer absorbs the same corruption without raising at all.

``TestCodecContract`` pins each check of the op table one case at a
time, on both sides: what encoding refuses, and the sealed frames
that decoding refuses although their checksum holds.
"""

from __future__ import annotations

import pytest

from repro.graphics import batch
from repro.remote import wire
from repro.remote.renderer import RemoteRenderer
from repro.remote.wire import Frame, WireError, decode_frame, encode_frame
from tests.randutil import describe_seed, seeded_rng

WIDTH, HEIGHT = 40, 12


def _random_bitmap(rng, max_side=6):
    w = rng.randrange(1, max_side)
    h = rng.randrange(1, max_side)
    return (w, h, bytes(rng.randrange(2) for _ in range(w * h)))


def _random_text(rng):
    alphabet = "abcXYZ 012\t~%é☃"  # ascii + multi-byte utf-8
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))


def _random_op(rng, target):
    """One random op legal for ``target`` (refs are made separately)."""
    kinds = ["fill", "hline", "vline", "text", "pixel", "blit", "copy"]
    kinds += ["cells", "grid"] if target == "ascii" else ["rowbits",
                                                          "snapshot"]
    kind = rng.choice(kinds)
    c = lambda hi: rng.randrange(-4, hi + 4)  # slightly out-of-bounds too
    if kind == "fill":
        return ("fill", c(WIDTH), c(HEIGHT), rng.randrange(0, WIDTH),
                rng.randrange(0, HEIGHT), rng.choice((-1, 0, 1)))
    if kind == "hline":
        return ("hline", c(WIDTH), c(WIDTH), c(HEIGHT), rng.choice((-1, 0, 1)))
    if kind == "vline":
        return ("vline", c(WIDTH), c(HEIGHT), c(HEIGHT), rng.choice((-1, 0, 1)))
    if kind == "text":
        fonts = ("andy12", "andy12b", "andysans10i", "andytype14")
        return ("text", c(WIDTH), c(HEIGHT), _random_text(rng),
                rng.choice(fonts), c(WIDTH), c(HEIGHT),
                rng.randrange(0, WIDTH), rng.randrange(0, HEIGHT))
    if kind == "pixel":
        return ("pixel", c(WIDTH), c(HEIGHT), rng.choice((-1, 0, 1)))
    if kind == "blit":
        return ("blit", _random_bitmap(rng), c(WIDTH), c(HEIGHT))
    if kind == "copy":
        return ("copy", c(WIDTH), c(HEIGHT), rng.randrange(1, WIDTH),
                rng.randrange(1, HEIGHT), rng.randrange(-5, 6),
                rng.randrange(-5, 6))
    if kind == "cells":
        count = rng.randrange(1, 10)
        return ("cells", c(HEIGHT), c(WIDTH),
                "".join(rng.choice("ab% é") for _ in range(count)),
                wire.pack_bits([rng.randrange(2) for _ in range(count)]),
                wire.pack_bits([rng.randrange(2) for _ in range(count)]))
    if kind == "grid":
        size = WIDTH * HEIGHT
        return ("grid", "".join(rng.choice("xy .") for _ in range(size)),
                wire.pack_bits([rng.randrange(2) for _ in range(size)]),
                wire.pack_bits([rng.randrange(2) for _ in range(size)]))
    if kind == "rowbits":
        count = rng.randrange(1, WIDTH)
        return ("rowbits", c(HEIGHT), c(WIDTH), count,
                wire.pack_bits([rng.randrange(2) for _ in range(count)]))
    return ("snapshot", (WIDTH, HEIGHT, bytes(
        rng.randrange(2) for _ in range(WIDTH * HEIGHT))))


def _random_frame(rng, seq=0):
    target = rng.choice(("ascii", "raster"))
    keyframe = rng.random() < 0.3
    ops = [_random_op(rng, target) for _ in range(rng.randrange(0, 14))]
    if not keyframe:
        # Sprinkle delta refs between literal ops.
        for _ in range(rng.randrange(0, 3)):
            pos = rng.randrange(len(ops) + 1)
            ops.insert(pos, ("ref", rng.randrange(0, 40),
                             rng.randrange(1, 20)))
    return Frame(keyframe=keyframe, seq=seq, target=target,
                 width=WIDTH, height=HEIGHT, ops=ops)


def _varint(value):
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _sealed(op_bytes, *, keyframe=False, strings=(), fonts=(), bitmaps=(),
            width=4, height=2):
    """A checksum-valid ascii frame built by hand around one encoded op,
    so the decoder sees input that :func:`encode_frame` would refuse.
    ``fonts`` are indexes into ``strings``; ``bitmaps`` are
    ``(width, height, packed_bytes)``."""
    payload = bytearray([1 if keyframe else 2, 0, wire.TARGETS["ascii"]])
    payload += _varint(width) + _varint(height) + _varint(len(strings))
    for text in strings:
        raw = text.encode("utf-8")
        payload += _varint(len(raw)) + raw
    payload += _varint(len(fonts))
    for ref in fonts:
        payload += _varint(ref)
    payload += _varint(len(bitmaps))
    for bw, bh, packed in bitmaps:
        payload += _varint(bw) + _varint(bh) + packed
    payload += _varint(1) + op_bytes
    return wire._seal(payload)


class TestRoundTrip:
    def test_fuzz_round_trip_bit_exact(self):
        rng = seeded_rng(9100)
        for round_no in range(120):
            frame = _random_frame(rng, seq=round_no)
            data = encode_frame(frame)
            decoded, offset = decode_frame(data)
            assert offset == len(data), (
                f"trailing bytes (round {round_no}, {describe_seed(9100)})"
            )
            assert decoded == frame, (
                f"round-trip drift (round {round_no}, {describe_seed(9100)})"
            )
            # Canonical: re-encoding the decoded frame is byte-identical.
            assert encode_frame(decoded) == data, (
                f"unstable encoding (round {round_no}, {describe_seed(9100)})"
            )

    def test_fuzz_streams_decode_frame_by_frame(self):
        rng = seeded_rng(9101)
        frames = [_random_frame(rng, seq=i) for i in range(20)]
        stream = b"".join(encode_frame(f) for f in frames)
        offset = 0
        for expected in frames:
            decoded, offset = decode_frame(stream, offset)
            assert decoded == expected
        assert offset == len(stream)

    def test_interned_tables_dedupe_repeats(self):
        bitmap = (3, 3, bytes(9))
        ops = [("blit", bitmap, i, 0) for i in range(10)]
        ops += [("text", 0, i, "same string", "andy12", 0, 0, 9, 9)
                for i in range(10)]
        one = encode_frame(Frame(keyframe=True, seq=0, target="raster",
                                 width=WIDTH, height=HEIGHT, ops=ops[:11]))
        # 10 identical blits cost barely more than 1: pixels intern once.
        single = encode_frame(Frame(keyframe=True, seq=0, target="raster",
                                    width=WIDTH, height=HEIGHT,
                                    ops=ops[:2]))
        assert len(one) < len(single) + 9 * 8

    def test_empty_and_max_plausible_frames(self):
        empty = Frame(keyframe=False, seq=0, target="ascii",
                      width=1, height=1, ops=[])
        decoded, _ = decode_frame(encode_frame(empty))
        assert decoded == empty


class TestHostileInput:
    def test_every_truncation_point_raises_typed_error(self):
        rng = seeded_rng(9102)
        data = encode_frame(_random_frame(rng))
        for cut in range(len(data)):
            try:
                decode_frame(data[:cut])
            except WireError:
                continue
            except Exception as exc:  # pragma: no cover - the failure case
                pytest.fail(
                    f"truncation at {cut} leaked {type(exc).__name__}: {exc}"
                )
            else:
                pytest.fail(f"truncation at {cut} decoded successfully")

    def test_truncation_is_incomplete_not_error_in_partial_mode(self):
        rng = seeded_rng(9103)
        data = encode_frame(_random_frame(rng))
        for cut in range(len(data)):
            try:
                result = wire.decode_frame(data[:cut], partial=True)
            except WireError:
                continue  # corrupt-looking prefixes may still raise
            except Exception as exc:  # pragma: no cover
                pytest.fail(
                    f"partial cut {cut} leaked {type(exc).__name__}: {exc}"
                )
            else:
                assert result is None, f"cut {cut} decoded a whole frame"

    def test_byte_flips_raise_typed_error_or_decode(self):
        """A flipped byte either fails the checksum (typed error) or —
        for flips in the pre-checksum framing — still yields a Frame.
        Nothing else may escape."""
        rng = seeded_rng(9104)
        for round_no in range(150):
            data = bytearray(encode_frame(_random_frame(rng)))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                result = decode_frame(bytes(data))
            except WireError:
                continue
            except Exception as exc:  # pragma: no cover
                pytest.fail(
                    f"byte flip leaked {type(exc).__name__}: {exc} "
                    f"(round {round_no}, {describe_seed(9104)})"
                )
            assert isinstance(result[0], Frame)

    def test_garbage_raises_typed_error(self):
        rng = seeded_rng(9105)
        for round_no in range(100):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 120)))
            try:
                decode_frame(blob)
            except WireError:
                continue
            except Exception as exc:  # pragma: no cover
                pytest.fail(
                    f"garbage leaked {type(exc).__name__}: {exc} "
                    f"(round {round_no}, {describe_seed(9105)})"
                )
            else:
                pytest.fail(
                    f"garbage decoded (round {round_no}, "
                    f"{describe_seed(9105)})"
                )

    def test_unsupported_version_raises(self):
        data = bytearray(encode_frame(Frame(
            keyframe=True, seq=0, target="ascii", width=2, height=2,
            ops=[("grid", "abcd", b"\x00", b"\x00")],
        )))
        assert data[2] == wire.VERSION
        data[2] = wire.VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(data))

    def test_ref_in_keyframe_rejected_both_directions(self):
        frame = Frame(keyframe=True, seq=0, target="ascii",
                      width=2, height=2, ops=[("ref", 0, 1)])
        with pytest.raises(WireError):
            encode_frame(frame)
        with pytest.raises(WireError, match="keyframe"):
            decode_frame(_sealed(bytes([7, 0, 1]), keyframe=True))

    def test_expand_refs_out_of_range_raises(self):
        with pytest.raises(WireError):
            wire.expand_refs([("ref", 2, 5)], [("pixel", 0, 0, 1)])


class TestCodecContract:
    """Every check the codec makes, one case each: encoding refuses an op
    the decoder could not read back, and decoding refuses a sealed frame
    whose ops break the layout that :data:`wire.OPS` declares."""

    def test_op_table_extends_the_device_schema(self):
        # The opcode is the kind's position, so this order is the wire.
        assert list(wire.OPS) == [
            "fill", "hline", "vline", "text", "pixel", "blit", "copy",
            "ref", "cells", "grid", "rowbits", "snapshot",
        ]
        assert tuple(wire.OPS)[:7] == tuple(batch.SCHEMA)
        for kind, names in batch.SCHEMA.items():
            assert len(wire.OPS[kind]) == len(names), kind

    @pytest.mark.parametrize("op, reason", [
        (("circle", 0, 0, 3), "unknown op kind"),
        ((), "malformed"),
        (("fill", 0, 0, 1, 1), "malformed"),
        (("pixel", 0, 0, 1, 1), "malformed"),
        (("fill", 0, 0, -1, 1, 1), "varint"),
        (("ref", -1, 2), "varint"),
        (("cells", 0, 0, "abc", b"", b"\x00"), "bytes"),
        (("cells", 0, 0, "abc", b"\x00", b"\x00\x00"), "bytes"),
        (("grid", "abcdefgh", b"\x00\x00", b"\x00"), "bytes"),
        (("rowbits", 0, 0, 9, b"\x00"), "bytes"),
        (("blit", (2, 2, bytes(3)), 0, 0), "bitmap"),
        (("snapshot", (4, 2, "pixels!!")), "bitmap"),
        (("grid", "abc", b"\x00", b"\x00"), "cover"),
        (("rowbits", 0, 0, wire._MAX_DIM + 1,
          bytes((wire._MAX_DIM + 8) // 8)), "cap"),
        (("text", 0, 0, b"hi", "andy12", 0, 0, 4, 2), "str"),
        (("text", 0, 0, "\ud800", "andy12", 0, 0, 4, 2), "UTF-8"),
    ], ids=["unknown-kind", "empty", "arity-short", "arity-long",
            "negative-width", "negative-ref", "cells-inverse",
            "cells-bold", "grid-bits", "rowbits-bits", "blit-bitmap",
            "snapshot-bitmap", "grid-cover", "rowbits-cap", "text-bytes",
            "text-surrogate"])
    def test_encode_rejects(self, op, reason):
        frame = Frame(keyframe=False, seq=0, target="ascii", width=4,
                      height=2, ops=[op])
        with pytest.raises(WireError, match=reason):
            encode_frame(frame)

    def test_decode_rejects_grid_that_does_not_cover_the_frame(self):
        data = _sealed(bytes([9, 0, 0, 0]), keyframe=True, strings=["abc"])
        with pytest.raises(WireError, match="cover"):
            decode_frame(data)

    def test_decode_rejects_rowbits_run_over_the_dimension_cap(self):
        count = wire._MAX_DIM + 1
        op = bytes([10, 0, 0]) + _varint(count) + bytes((count + 7) // 8)
        with pytest.raises(WireError, match="cap"):
            decode_frame(_sealed(op))

    @pytest.mark.parametrize("op, tables", [
        (bytes([3, 0, 0, 2, 0, 0, 0, 4, 2]), {"strings": ["hi", "andy12"],
                                              "fonts": [1]}),
        (bytes([8, 0, 0, 1, 0, 0]), {"strings": ["a"]}),
        (bytes([3, 0, 0, 0, 1, 0, 0, 4, 2]), {"strings": ["hi", "andy12"],
                                              "fonts": [1]}),
        (bytes([5, 0, 0, 0]), {}),
        (bytes([11, 1]), {"bitmaps": [(1, 1, b"\x80")]}),
    ], ids=["text-string", "cells-string", "text-font", "blit-bitmap",
            "snapshot-bitmap"])
    def test_decode_rejects_table_ref_out_of_range(self, op, tables):
        with pytest.raises(WireError, match="outside"):
            decode_frame(_sealed(op, **tables))

    def test_hand_built_frame_decodes(self):
        # The helper above builds valid frames: only the bad ref fails.
        frame, _ = decode_frame(_sealed(bytes([3, 0, 0, 0, 0, 0, 0, 4, 2]),
                                        strings=["hi", "andy12"], fonts=[1]))
        assert frame.ops == [("text", 0, 0, "hi", "andy12", 0, 0, 4, 2)]


class TestRendererRobustness:
    def test_feed_never_raises_on_corrupted_streams(self):
        """The stream consumer absorbs arbitrary corruption: flipped
        bytes, dropped spans, injected garbage — fed in random chunk
        sizes — and still applies the clean keyframe that follows."""
        rng = seeded_rng(9106)
        for round_no in range(25):
            frames = [_random_frame(rng, seq=i) for i in range(8)]
            stream = bytearray(b"".join(encode_frame(f) for f in frames))
            for _ in range(rng.randrange(1, 6)):
                kind = rng.randrange(3)
                if kind == 0 and stream:
                    stream[rng.randrange(len(stream))] ^= 0xFF
                elif kind == 1 and len(stream) > 10:
                    start = rng.randrange(len(stream) - 8)
                    del stream[start:start + rng.randrange(1, 8)]
                else:
                    pos = rng.randrange(len(stream) + 1)
                    junk = bytes(rng.randrange(256)
                                 for _ in range(rng.randrange(1, 12)))
                    stream[pos:pos] = junk
            # A clean keyframe closes the stream: the renderer must be
            # able to converge on it no matter what came before.
            closing = Frame(keyframe=True, seq=99, target="ascii",
                            width=4, height=2,
                            ops=[("grid", "12345678", b"\x00", b"\x00")])
            stream += encode_frame(closing)
            renderer = RemoteRenderer()
            view = memoryview(bytes(stream))
            pos = 0
            while pos < len(view):
                step = rng.randrange(1, 64)
                renderer.feed(bytes(view[pos:pos + step]))
                pos += step
            assert renderer.synchronized, (
                f"never converged (round {round_no}, {describe_seed(9106)})"
            )
            assert renderer.surface.lines() == ["1234", "5678"], (
                f"closing keyframe misapplied (round {round_no}, "
                f"{describe_seed(9106)})"
            )

    @pytest.mark.parametrize("spec", ["zz", "andy0", "andy12q"])
    def test_malformed_font_spec_resyncs_to_next_keyframe(self, spec):
        """A checksum-valid frame whose font table holds a spec that
        does not parse is a typed decode error: the renderer resyncs
        past it instead of raising out of ``feed`` on every call."""
        bad = Frame(keyframe=True, seq=0, target="ascii", width=4, height=2,
                    ops=[("text", 0, 0, "hi", spec, 0, 0, 4, 2)])
        good = Frame(keyframe=True, seq=1, target="ascii", width=4,
                     height=2, ops=[("grid", "abcdefgh", b"\x00", b"\x00")])
        with pytest.raises(WireError):
            decode_frame(encode_frame(bad))
        renderer = RemoteRenderer()
        renderer.feed(encode_frame(bad))
        renderer.feed(encode_frame(good))
        assert renderer.resyncs == 1
        assert renderer.synchronized
        assert renderer.surface.lines() == ["abcd", "efgh"]

    @pytest.mark.parametrize("target, op", [
        ("ascii", ("rowbits", 0, 0, 4, b"\xf0")),
        ("ascii", ("snapshot", (4, 2, bytes(8)))),
        ("raster", ("cells", 0, 0, "ab", b"\x00", b"\x00")),
        ("raster", ("grid", "abcdefgh", b"\x00", b"\x00")),
    ], ids=["ascii-rowbits", "ascii-snapshot", "raster-cells", "raster-grid"])
    def test_surface_op_of_the_other_target_is_skipped(self, target, op):
        """A sealed delta frame carrying another target's surface op is
        skipped whole; the renderer waits for, and applies, the next
        keyframe."""
        if target == "ascii":
            keyframe_op = ("grid", "abcdefgh", b"\x00", b"\x00")
        else:
            keyframe_op = ("snapshot", (4, 2, bytes([1, 0] * 4)))

        def frame(seq, keyframe, ops):
            return encode_frame(Frame(keyframe=keyframe, seq=seq,
                                      target=target, width=4, height=2,
                                      ops=ops))

        def replica():
            if target == "raster":
                return bytes(renderer.framebuffer._bits)
            return renderer.surface.lines()

        renderer = RemoteRenderer()
        renderer.feed(frame(0, True, [keyframe_op]))
        before = replica()
        renderer.feed(frame(1, False, [op]))
        assert renderer.frames_skipped == 1
        assert not renderer.synchronized
        assert replica() == before
        assert renderer.feed(frame(2, True, [keyframe_op])) == 1
        assert renderer.synchronized and renderer.last_seq == 2
