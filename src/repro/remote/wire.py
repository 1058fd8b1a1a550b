"""The remote display wire format (version 2).

One *frame* is everything a window's :meth:`flush` produced: the
logged :class:`~repro.graphics.batch.CommandBuffer` op list plus any
repair/diff ops the encoder appended.  Frames are self-delimiting and
integrity-checked so a dumb renderer can consume them from a byte
stream and recover from corruption at the next keyframe:

=================  ====================================================
field              encoding
=================  ====================================================
magic              ``b"AW"``
version            varint (this module speaks exactly ``2``)
payload length     varint (bytes; bounded by ``MAX_FRAME_BYTES``)
payload            see below
checksum           CRC-32 of the payload, 4 bytes little-endian
=================  ====================================================

Payload::

    frame type (1 keyframe / 2 delta) | seq | target ('A'/'R')
    | width | height
    | string table | font table | bitmap table
    | op count | ops...

Version 2 adds two tiny *control* frames sharing the same envelope
(magic/version/length/CRC), distinguished by the frame-type byte:

``ping`` (type 3)
    ``seq`` varint — the sender's last shipped display seq.  A
    liveness heartbeat: it proves the connection and tells an idle
    renderer what seq it should be caught up to.  Carries no display
    ops and never disturbs renderer synchronization.
``hello`` (type 4)
    ``last_seq`` zigzag varint — sent *renderer → server* on
    (re)attach: the last display seq the renderer applied, ``-1`` for
    a fresh renderer that has applied nothing.  The server answers by
    replaying the missed frames verbatim from its history (seq-based
    resume) or, when the gap is out of window, with a fresh keyframe.

Integers are unsigned LEB128 varints; values that can be negative
(coordinates, fill values — ``-1`` means invert) are zigzag-encoded
first.  Strings (text runs, font specs, cell runs) are interned into a
per-frame table in first-use order, fonts are references to their spec
string (``andy12b``), and bitmaps are interned *by content* — a frame
blitting one cel N times ships the pixels once.  First-use-order
interning makes encoding canonical: ``encode(decode(b)) == b``.

Op vocabulary (opcode, operands, meaning):

====  =========  ====================================================
 0    fill       ``l, t, w, h, value`` — fill_rect
 1    hline      ``x0, x1, y, value``
 2    vline      ``x, y0, y1, value``
 3    text       ``x, y, str, fontspec, clip l/t/w/h`` — draw_text
                 replayed under the recorded clip
 4    pixel      ``x, y, value``
 5    blit       ``bitmap, x, y``
 6    copy       ``l, t, w, h, dx, dy`` — same-surface copy_area
                 (PR 8's scroll shifts)
 7    ref        ``start, count`` — replay ops [start, start+count)
                 of the *previous* frame's expanded op list (the
                 delta-elision op; invalid in keyframes)
 8    cells      ``y, x0, chars, inverse bits, bold bits`` — ascii
                 cell-diff run
 9    grid       ``chars, inverse bits, bold bits`` — full ascii
                 surface (keyframe)
10    rowbits    ``y, x0, count, bits`` — raster row-span repair
11    snapshot   ``bitmap`` — full raster surface (keyframe)
====  =========  ====================================================

Decoding is strictly bounds-checked: truncated, bit-flipped or garbage
input raises :class:`WireError` — never a hang, never a foreign
exception (every op consumes at least one byte, varints are capped at
ten bytes, table references are range-checked).  ``tests/test_wire.py``
fuzzes exactly that contract.

Versioning rule: any change to the layout above (a new opcode, a field
reordering, a different intern scheme) bumps :data:`VERSION`; decoders
reject other versions with a typed error so a stale renderer fails
loudly rather than misrendering.  The ping/hello control frames are
exactly such a change: version 1 decoders reject a version-2 stream at
the first envelope rather than choking on an unknown frame type.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

from ..graphics.fontdesc import FontDesc

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_FRAME_BYTES",
    "TARGETS",
    "Frame",
    "Hello",
    "Ping",
    "WireError",
    "encode_frame",
    "encode_hello",
    "encode_ping",
    "decode_frame",
    "expand_refs",
    "pack_bits",
    "unpack_bits",
]

MAGIC = b"AW"
VERSION = 2

#: Upper bound on one frame's payload; anything claiming more is
#: corrupt by definition (a full 4096x4096 raster keyframe packs to
#: 2 MiB, far under this).
MAX_FRAME_BYTES = 1 << 24

#: Render targets a frame can address, mapped to their wire tag.
TARGETS = {"ascii": 0x41, "raster": 0x52}  # 'A' / 'R'
_TARGET_BY_TAG = {tag: name for name, tag in TARGETS.items()}

_KEYFRAME, _DELTA, _PING, _HELLO = 1, 2, 3, 4

#: Sanity caps: table/op counts and surface dimensions beyond these are
#: treated as corruption rather than honoured with huge allocations.
_MAX_ITEMS = 1 << 20
_MAX_DIM = 1 << 16
_MAX_VARINT_BYTES = 10

(_OP_FILL, _OP_HLINE, _OP_VLINE, _OP_TEXT, _OP_PIXEL, _OP_BLIT,
 _OP_COPY, _OP_REF, _OP_CELLS, _OP_GRID, _OP_ROWBITS,
 _OP_SNAPSHOT) = range(12)


class WireError(Exception):
    """Typed decode/encode failure: corrupt, truncated or invalid data."""


class Frame:
    """One decoded (or to-be-encoded) display frame.

    ``ops`` is a list of tuples, each ``(kind, *operands)`` with the
    kinds and operand orders documented in the module docstring.
    Bitmap operands are ``(width, height, pixel_bytes)`` with one byte
    (0/1) per pixel, matching ``Bitmap._bits``.
    """

    __slots__ = ("keyframe", "seq", "target", "width", "height", "ops")

    def __init__(self, *, keyframe: bool, seq: int, target: str,
                 width: int, height: int, ops: List[tuple]) -> None:
        self.keyframe = bool(keyframe)
        self.seq = seq
        self.target = target
        self.width = width
        self.height = height
        self.ops = list(ops)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Frame)
            and self.keyframe == other.keyframe
            and self.seq == other.seq
            and self.target == other.target
            and self.width == other.width
            and self.height == other.height
            and self.ops == other.ops
        )

    def __repr__(self) -> str:
        kind = "keyframe" if self.keyframe else "delta"
        return (
            f"<Frame {kind} seq={self.seq} {self.target} "
            f"{self.width}x{self.height} ops={len(self.ops)}>"
        )


class Ping:
    """Liveness heartbeat (server → renderer): no ops, just a seq."""

    __slots__ = ("seq",)

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def __eq__(self, other) -> bool:
        return isinstance(other, Ping) and self.seq == other.seq

    def __repr__(self) -> str:
        return f"<Ping seq={self.seq}>"


class Hello:
    """Resume handshake (renderer → server): last applied seq, -1=fresh."""

    __slots__ = ("last_seq",)

    def __init__(self, last_seq: int) -> None:
        self.last_seq = last_seq

    def __eq__(self, other) -> bool:
        return isinstance(other, Hello) and self.last_seq == other.last_seq

    def __repr__(self) -> str:
        return f"<Hello last_seq={self.last_seq}>"


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"varint value must be >= 0, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else (-value << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _write_svarint(out: bytearray, value: int) -> None:
    _write_varint(out, _zigzag(value))


def pack_bits(bits) -> bytes:
    """Pack a 0/1 sequence into bytes, MSB-first within each byte."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def unpack_bits(data: bytes, count: int) -> bytearray:
    """Inverse of :func:`pack_bits`: ``count`` 0/1 bytes."""
    out = bytearray(count)
    for i in range(count):
        if data[i >> 3] & (0x80 >> (i & 7)):
            out[i] = 1
    return out


class _Cursor:
    """Bounds-checked reader over one frame payload."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int) -> None:
        self.data = data
        self.pos = pos
        self.end = end

    def remaining(self) -> int:
        return self.end - self.pos

    def read_bytes(self, count: int) -> bytes:
        if count < 0 or self.pos + count > self.end:
            raise WireError(
                f"truncated frame: wanted {count} bytes, "
                f"{self.end - self.pos} left"
            )
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return bytes(out)

    def read_u8(self) -> int:
        if self.pos >= self.end:
            raise WireError("truncated frame: wanted 1 byte, 0 left")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def read_varint(self) -> int:
        value = 0
        shift = 0
        for length in range(_MAX_VARINT_BYTES):
            byte = self.read_u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
        raise WireError("varint longer than 10 bytes")

    def read_svarint(self) -> int:
        return _unzigzag(self.read_varint())

    def read_count(self, what: str, limit: int = _MAX_ITEMS) -> int:
        count = self.read_varint()
        if count > limit:
            raise WireError(f"{what} count {count} exceeds cap {limit}")
        return count


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

class _Interner:
    """First-use-order intern table (canonical: re-encode is identical)."""

    __slots__ = ("items", "_index")

    def __init__(self) -> None:
        self.items: List = []
        self._index: dict = {}

    def intern(self, value) -> int:
        ref = self._index.get(value)
        if ref is None:
            ref = len(self.items)
            self.items.append(value)
            self._index[value] = ref
        return ref


def _check_bitmap(value) -> tuple:
    if (not isinstance(value, tuple) or len(value) != 3
            or not isinstance(value[0], int) or not isinstance(value[1], int)
            or not isinstance(value[2], (bytes, bytearray))):
        raise WireError(f"bitmap operand must be (w, h, bytes), got {value!r}")
    width, height, bits = value
    if width < 0 or height < 0 or width * height != len(bits):
        raise WireError(
            f"bitmap operand {width}x{height} does not match "
            f"{len(bits)} pixel bytes"
        )
    return (width, height, bytes(bits))


def _encode_ops(ops, strings: _Interner, fonts: _Interner,
                bitmaps: _Interner) -> bytearray:
    out = bytearray()
    for op in ops:
        try:
            kind = op[0]
            if kind == "fill":
                _, left, top, width, height, value = op
                out.append(_OP_FILL)
                _write_svarint(out, left)
                _write_svarint(out, top)
                _write_varint(out, width)
                _write_varint(out, height)
                _write_svarint(out, value)
            elif kind == "hline":
                _, x0, x1, y, value = op
                out.append(_OP_HLINE)
                _write_svarint(out, x0)
                _write_svarint(out, x1)
                _write_svarint(out, y)
                _write_svarint(out, value)
            elif kind == "vline":
                _, x, y0, y1, value = op
                out.append(_OP_VLINE)
                _write_svarint(out, x)
                _write_svarint(out, y0)
                _write_svarint(out, y1)
                _write_svarint(out, value)
            elif kind == "text":
                _, x, y, text, spec, cl, ct, cw, ch = op
                out.append(_OP_TEXT)
                _write_svarint(out, x)
                _write_svarint(out, y)
                _write_varint(out, strings.intern(text))
                _write_varint(out, fonts.intern(spec))
                _write_svarint(out, cl)
                _write_svarint(out, ct)
                _write_varint(out, cw)
                _write_varint(out, ch)
            elif kind == "pixel":
                _, x, y, value = op
                out.append(_OP_PIXEL)
                _write_svarint(out, x)
                _write_svarint(out, y)
                _write_svarint(out, value)
            elif kind == "blit":
                _, bitmap, x, y = op
                out.append(_OP_BLIT)
                _write_varint(out, bitmaps.intern(_check_bitmap(bitmap)))
                _write_svarint(out, x)
                _write_svarint(out, y)
            elif kind == "copy":
                _, left, top, width, height, dx, dy = op
                out.append(_OP_COPY)
                _write_svarint(out, left)
                _write_svarint(out, top)
                _write_varint(out, width)
                _write_varint(out, height)
                _write_svarint(out, dx)
                _write_svarint(out, dy)
            elif kind == "ref":
                _, start, count = op
                out.append(_OP_REF)
                _write_varint(out, start)
                _write_varint(out, count)
            elif kind == "cells":
                _, y, x0, chars, inverse, bold = op
                nbytes = (len(chars) + 7) // 8
                if len(inverse) != nbytes or len(bold) != nbytes:
                    raise WireError(
                        f"cells run of {len(chars)} needs {nbytes} "
                        f"attribute bytes, got {len(inverse)}/{len(bold)}"
                    )
                out.append(_OP_CELLS)
                _write_svarint(out, y)
                _write_svarint(out, x0)
                _write_varint(out, strings.intern(chars))
                out += inverse
                out += bold
            elif kind == "grid":
                _, chars, inverse, bold = op
                nbytes = (len(chars) + 7) // 8
                if len(inverse) != nbytes or len(bold) != nbytes:
                    raise WireError(
                        f"grid of {len(chars)} needs {nbytes} attribute "
                        f"bytes, got {len(inverse)}/{len(bold)}"
                    )
                out.append(_OP_GRID)
                _write_varint(out, strings.intern(chars))
                out += inverse
                out += bold
            elif kind == "rowbits":
                _, y, x0, count, bits = op
                if len(bits) != (count + 7) // 8:
                    raise WireError(
                        f"rowbits run of {count} needs {(count + 7) // 8} "
                        f"bytes, got {len(bits)}"
                    )
                out.append(_OP_ROWBITS)
                _write_svarint(out, y)
                _write_svarint(out, x0)
                _write_varint(out, count)
                out += bits
            elif kind == "snapshot":
                _, bitmap = op
                out.append(_OP_SNAPSHOT)
                _write_varint(out, bitmaps.intern(_check_bitmap(bitmap)))
            else:
                raise WireError(f"unknown op kind {kind!r}")
        except WireError:
            raise
        except (TypeError, ValueError, IndexError) as exc:
            raise WireError(f"malformed op {op!r}: {exc}") from exc
    return out


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame; raises :class:`WireError` on malformed ops."""
    tag = TARGETS.get(frame.target)
    if tag is None:
        raise WireError(f"unknown target {frame.target!r}")
    if not 0 <= frame.width <= _MAX_DIM or not 0 <= frame.height <= _MAX_DIM:
        raise WireError(f"bad dimensions {frame.width}x{frame.height}")
    if frame.seq < 0:
        raise WireError(f"negative seq {frame.seq}")
    if len(frame.ops) > _MAX_ITEMS:
        raise WireError(f"too many ops ({len(frame.ops)})")
    if frame.keyframe and any(op and op[0] == "ref" for op in frame.ops):
        raise WireError("ref ops are invalid in a keyframe")

    strings = _Interner()
    fonts = _Interner()
    bitmaps = _Interner()
    op_bytes = _encode_ops(frame.ops, strings, fonts, bitmaps)
    # Font specs ride the string table (repeated fonts cost one varint
    # per use); intern them all before the table serializes.
    font_refs = [strings.intern(spec) for spec in fonts.items]
    if len(strings.items) > _MAX_ITEMS:
        raise WireError("string table overflow")

    final = bytearray()
    final.append(_KEYFRAME if frame.keyframe else _DELTA)
    _write_varint(final, frame.seq)
    final.append(tag)
    _write_varint(final, frame.width)
    _write_varint(final, frame.height)
    _write_varint(final, len(strings.items))
    for text in strings.items:
        raw = text.encode("utf-8")
        _write_varint(final, len(raw))
        final += raw
    _write_varint(final, len(fonts.items))
    for ref in font_refs:
        _write_varint(final, ref)
    _write_varint(final, len(bitmaps.items))
    for width, height, bits in bitmaps.items:
        _write_varint(final, width)
        _write_varint(final, height)
        final += pack_bits(bits)
    _write_varint(final, len(frame.ops))
    final += op_bytes

    if len(final) > MAX_FRAME_BYTES:
        raise WireError(f"frame payload {len(final)} exceeds cap")
    return _seal(final)


def _seal(payload: bytearray) -> bytes:
    """Wrap one payload in the envelope: magic, version, length, CRC."""
    out = bytearray(MAGIC)
    _write_varint(out, VERSION)
    _write_varint(out, len(payload))
    out += payload
    out += (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def encode_ping(seq: int) -> bytes:
    """Serialize a liveness :class:`Ping` (a dozen bytes on the wire)."""
    if seq < 0:
        raise WireError(f"negative ping seq {seq}")
    payload = bytearray([_PING])
    _write_varint(payload, seq)
    return _seal(payload)


def encode_hello(last_seq: int) -> bytes:
    """Serialize a resume :class:`Hello` (``last_seq`` -1 = fresh)."""
    if last_seq < -1:
        raise WireError(f"hello last_seq {last_seq} below -1")
    payload = bytearray([_HELLO])
    _write_svarint(payload, last_seq)
    return _seal(payload)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _read_tables(cur: _Cursor) -> Tuple[List[str], List[str], List[tuple]]:
    strings: List[str] = []
    for _ in range(cur.read_count("string table")):
        raw = cur.read_bytes(cur.read_varint())
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireError(f"string table entry is not UTF-8: {exc}") from exc
    fonts: List[str] = []
    for _ in range(cur.read_count("font table")):
        ref = cur.read_varint()
        if ref >= len(strings):
            raise WireError(f"font spec ref {ref} outside string table")
        try:
            FontDesc.from_spec(strings[ref])
        except ValueError as exc:
            raise WireError(f"bad font table entry: {exc}") from exc
        fonts.append(strings[ref])
    bitmaps: List[tuple] = []
    for _ in range(cur.read_count("bitmap table")):
        width = cur.read_varint()
        height = cur.read_varint()
        if width > _MAX_DIM or height > _MAX_DIM:
            raise WireError(f"bitmap {width}x{height} exceeds dimension cap")
        packed = cur.read_bytes((width * height + 7) // 8)
        bitmaps.append((width, height, bytes(unpack_bits(packed, width * height))))
    return strings, fonts, bitmaps


def _read_op(cur: _Cursor, strings, fonts, bitmaps, width, height) -> tuple:
    def string_ref():
        ref = cur.read_varint()
        if ref >= len(strings):
            raise WireError(f"string ref {ref} outside table")
        return strings[ref]

    def bitmap_ref():
        ref = cur.read_varint()
        if ref >= len(bitmaps):
            raise WireError(f"bitmap ref {ref} outside table")
        return bitmaps[ref]

    opcode = cur.read_u8()
    if opcode == _OP_FILL:
        return ("fill", cur.read_svarint(), cur.read_svarint(),
                cur.read_varint(), cur.read_varint(), cur.read_svarint())
    if opcode == _OP_HLINE:
        return ("hline", cur.read_svarint(), cur.read_svarint(),
                cur.read_svarint(), cur.read_svarint())
    if opcode == _OP_VLINE:
        return ("vline", cur.read_svarint(), cur.read_svarint(),
                cur.read_svarint(), cur.read_svarint())
    if opcode == _OP_TEXT:
        x, y = cur.read_svarint(), cur.read_svarint()
        text = string_ref()
        ref = cur.read_varint()
        if ref >= len(fonts):
            raise WireError(f"font ref {ref} outside table")
        spec = fonts[ref]
        return ("text", x, y, text, spec, cur.read_svarint(),
                cur.read_svarint(), cur.read_varint(), cur.read_varint())
    if opcode == _OP_PIXEL:
        return ("pixel", cur.read_svarint(), cur.read_svarint(),
                cur.read_svarint())
    if opcode == _OP_BLIT:
        bitmap = bitmap_ref()
        return ("blit", bitmap, cur.read_svarint(), cur.read_svarint())
    if opcode == _OP_COPY:
        return ("copy", cur.read_svarint(), cur.read_svarint(),
                cur.read_varint(), cur.read_varint(),
                cur.read_svarint(), cur.read_svarint())
    if opcode == _OP_REF:
        return ("ref", cur.read_varint(), cur.read_varint())
    if opcode == _OP_CELLS:
        y, x0 = cur.read_svarint(), cur.read_svarint()
        chars = string_ref()
        nbytes = (len(chars) + 7) // 8
        return ("cells", y, x0, chars,
                cur.read_bytes(nbytes), cur.read_bytes(nbytes))
    if opcode == _OP_GRID:
        chars = string_ref()
        if len(chars) != width * height:
            raise WireError(
                f"grid of {len(chars)} chars does not cover "
                f"{width}x{height}"
            )
        nbytes = (len(chars) + 7) // 8
        return ("grid", chars, cur.read_bytes(nbytes), cur.read_bytes(nbytes))
    if opcode == _OP_ROWBITS:
        y, x0 = cur.read_svarint(), cur.read_svarint()
        count = cur.read_count("rowbits run", _MAX_DIM)
        return ("rowbits", y, x0, count, cur.read_bytes((count + 7) // 8))
    if opcode == _OP_SNAPSHOT:
        return ("snapshot", bitmap_ref())
    raise WireError(f"unknown opcode {opcode}")


def decode_frame(data: bytes, offset: int = 0, *,
                 partial: bool = False) -> Optional[Tuple[Frame, int]]:
    """Decode one frame starting at ``offset``.

    Returns ``(frame, next_offset)`` where ``frame`` is a
    :class:`Frame`, or a :class:`Ping`/:class:`Hello` control frame
    (match on type).  With ``partial=True`` (stream
    consumption), returns ``None`` when the buffer holds a valid
    *prefix* of a frame that more bytes could complete; definite
    corruption still raises :class:`WireError`.  With ``partial=False``
    any incompleteness is an error.
    """
    view = memoryview(data)
    total = len(view)

    def incomplete(why: str):
        if partial:
            return None
        raise WireError(f"truncated frame: {why}")

    if total - offset < len(MAGIC):
        return incomplete("missing magic")
    if bytes(view[offset:offset + len(MAGIC)]) != MAGIC:
        raise WireError("bad magic")
    pos = offset + len(MAGIC)

    def header_varint(what: str):
        nonlocal pos
        value = 0
        shift = 0
        for i in range(_MAX_VARINT_BYTES):
            if pos >= total:
                return None  # incomplete
            byte = view[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
        raise WireError(f"{what} varint longer than 10 bytes")

    version = header_varint("version")
    if version is None:
        return incomplete("in version")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    length = header_varint("length")
    if length is None:
        return incomplete("in payload length")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame payload {length} exceeds cap")
    end = pos + length
    if end + 4 > total:
        return incomplete("payload/checksum not yet received")

    payload = bytes(view[pos:end])
    want_crc = int.from_bytes(bytes(view[end:end + 4]), "little")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != want_crc:
        raise WireError("checksum mismatch")

    cur = _Cursor(payload, 0, len(payload))
    frame_type = cur.read_u8()
    if frame_type == _PING:
        ping = Ping(cur.read_varint())
        if cur.remaining():
            raise WireError(f"{cur.remaining()} trailing bytes in ping")
        return ping, end + 4
    if frame_type == _HELLO:
        hello = Hello(cur.read_svarint())
        if hello.last_seq < -1:
            raise WireError(f"hello last_seq {hello.last_seq} below -1")
        if cur.remaining():
            raise WireError(f"{cur.remaining()} trailing bytes in hello")
        return hello, end + 4
    if frame_type not in (_KEYFRAME, _DELTA):
        raise WireError(f"unknown frame type {frame_type}")
    seq = cur.read_varint()
    tag = cur.read_u8()
    target = _TARGET_BY_TAG.get(tag)
    if target is None:
        raise WireError(f"unknown target tag {tag:#x}")
    width = cur.read_varint()
    height = cur.read_varint()
    if width > _MAX_DIM or height > _MAX_DIM:
        raise WireError(f"dimensions {width}x{height} exceed cap")
    strings, fonts, bitmaps = _read_tables(cur)
    ops = []
    for _ in range(cur.read_count("op list")):
        op = _read_op(cur, strings, fonts, bitmaps, width, height)
        if frame_type == _KEYFRAME and op[0] == "ref":
            raise WireError("ref op inside a keyframe")
        ops.append(op)
    if cur.remaining():
        raise WireError(f"{cur.remaining()} trailing bytes in payload")
    frame = Frame(keyframe=(frame_type == _KEYFRAME), seq=seq,
                  target=target, width=width, height=height, ops=ops)
    return frame, end + 4


def expand_refs(ops: List[tuple], prev_ops: List[tuple]) -> List[tuple]:
    """Resolve ``ref`` ops against the previous frame's expanded list."""
    out: List[tuple] = []
    for op in ops:
        if op[0] == "ref":
            _, start, count = op
            if start + count > len(prev_ops):
                raise WireError(
                    f"ref [{start}, {start + count}) outside previous "
                    f"frame of {len(prev_ops)} ops"
                )
            out.extend(prev_ops[start:start + count])
        else:
            out.append(op)
    return out
