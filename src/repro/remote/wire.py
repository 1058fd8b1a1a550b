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

The op vocabulary is :data:`OPS`: each kind's operand codes, in the
order of the op tuple, with the kind's position in the table as its
opcode.  One loop over a kind's codes encodes it and one loop decodes
it, so the table is the only place an op's layout is written down.

Decoding is strictly bounds-checked: truncated, bit-flipped or garbage
input raises :class:`WireError` — never a hang, never a foreign
exception (every op consumes at least one byte, varints are capped at
ten bytes, table references are range-checked, runs are capped).
Encoding refuses what decoding would: an unknown kind, a wrong
operand count, a negative varint, a string that is not a UTF-8
encodable ``str``, a bit run of the wrong length, a run over the cap,
a grid that does not cover the frame, a malformed bitmap.
``tests/test_wire.py`` fuzzes exactly that contract.

Versioning rule: any change to the layout above or to :data:`OPS` (a
new opcode, a field reordering, a different intern scheme) bumps
:data:`VERSION`; decoders reject other versions with a typed error so
a stale renderer fails loudly rather than misrendering.  The
ping/hello control frames are exactly such a change: version 1
decoders reject a version-2 stream at the first envelope rather than
choking on an unknown frame type.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

from ..graphics.fontdesc import FontDesc

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_FRAME_BYTES",
    "OPS",
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

#: The op vocabulary: kind -> operand codes, one code per operand of
#: the op tuple ``(kind, *operands)``.  A kind's opcode is its position
#: here, so the seven device kinds of
#: :data:`repro.graphics.batch.SCHEMA` come first, in its order.  Codes:
#:
#: ``s``  zigzag varint (coordinates; fill values, where -1 inverts)
#: ``u``  varint (extents, ref positions)
#: ``n``  run length: a varint of at most ``_MAX_DIM``
#: ``S``  string-table ref; the operand is the ``str``
#: ``G``  string-table ref to exactly ``width * height`` characters
#: ``F``  font ref; the operand is the spec string (``andy12b``)
#: ``B``  bitmap-table ref; the operand is ``(width, height, pixels)``
#:        with one 0/1 byte per pixel, as ``Bitmap._bits``
#: ``b``  packed bits, ``(run + 7) // 8`` raw bytes, where ``run`` is
#:        the length of the preceding string or ``n`` count
#:
#: ``ref`` replays ops ``[start, start + count)`` of the previous
#: frame's expanded op list (delta elision), so it is invalid in a
#: keyframe.  ``grid`` and ``snapshot`` carry a whole surface.
OPS = {
    "fill": "ssuus",        # l, t, w, h, value: fill_rect
    "hline": "ssss",        # x0, x1, y, value
    "vline": "ssss",        # x, y0, y1, value
    "text": "ssSFssuu",     # x, y, str, spec, clip l/t/w/h: draw_text
    "pixel": "sss",         # x, y, value
    "blit": "Bss",          # bitmap, x, y
    "copy": "ssuuss",       # l, t, w, h, dx, dy: copy_area (scroll shift)
    "ref": "uu",            # start, count
    "cells": "ssSbb",       # y, x0, chars, inverse, bold: ascii cell run
    "grid": "Gbb",          # chars, inverse, bold: the ascii surface
    "rowbits": "ssnb",      # y, x0, count, bits: raster row-span repair
    "snapshot": "B",        # bitmap: the raster surface
}

_OPCODES = {kind: (opcode, codes)
            for opcode, (kind, codes) in enumerate(OPS.items())}
_BY_OPCODE = tuple(OPS.items())
_TABLE_NAMES = {"S": "string", "G": "string", "F": "font", "B": "bitmap"}


class WireError(Exception):
    """Typed decode/encode failure: corrupt, truncated or invalid data."""


class Frame:
    """One decoded (or to-be-encoded) display frame.

    ``ops`` is a list of tuples, each ``(kind, *operands)`` with the
    kinds and operand orders of :data:`OPS`.
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


#: Each byte value expanded to its eight 0/1 bytes, MSB first.
_BYTE_BITS = tuple(bytes((value >> (7 - bit)) & 1 for bit in range(8))
                   for value in range(256))


def unpack_bits(data: bytes, count: int) -> bytearray:
    """Inverse of :func:`pack_bits`: ``count`` 0/1 bytes.

    Raises :class:`WireError` when ``data`` holds fewer than ``count``
    bits; bits past ``count`` are ignored.
    """
    need = (count + 7) // 8
    if len(data) < need:
        raise WireError(f"{len(data)} packed bytes for {count} bits")
    out = bytearray().join(map(_BYTE_BITS.__getitem__, data[:need]))
    del out[count:]
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
        # Most operands are coordinates and refs under 128: one byte.
        pos = self.pos
        if pos < self.end and self.data[pos] < 0x80:
            self.pos = pos + 1
            return self.data[pos]
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


def _encode_ops(ops, width: int, height: int, strings: _Interner,
                fonts: _Interner, bitmaps: _Interner) -> bytearray:
    out = bytearray()
    for op in ops:
        try:
            kind = op[0]
            entry = _OPCODES.get(kind)
            if entry is None:
                raise WireError(f"unknown op kind {kind!r}")
            opcode, codes = entry
            if len(op) != len(codes) + 1:
                raise WireError(
                    f"malformed op {op!r}: {kind} takes {len(codes)} "
                    f"operands, got {len(op) - 1}"
                )
            out.append(opcode)
            run = 0
            for i, code in enumerate(codes, 1):
                value = op[i]
                if code == "s":
                    _write_varint(out, _zigzag(value))
                elif code == "u":
                    _write_varint(out, value)
                elif code == "b":
                    if len(value) != (run + 7) // 8:
                        raise WireError(
                            f"{kind} run of {run} needs {(run + 7) // 8} "
                            f"bit bytes, got {len(value)}"
                        )
                    out += value
                elif code == "B":
                    _write_varint(out, bitmaps.intern(_check_bitmap(value)))
                elif code == "n":
                    if value > _MAX_DIM:
                        raise WireError(f"{kind} run {value} exceeds cap")
                    _write_varint(out, value)
                    run = value
                else:  # a string: text, cell chars or a font spec
                    if not isinstance(value, str):
                        raise WireError(
                            f"{kind} operand {value!r} is not a str"
                        )
                    run = len(value)
                    if code == "G" and run != width * height:
                        raise WireError(
                            f"{kind} of {run} chars does not cover "
                            f"{width}x{height}"
                        )
                    table = fonts if code == "F" else strings
                    _write_varint(out, table.intern(value))
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
    op_bytes = _encode_ops(frame.ops, frame.width, frame.height,
                           strings, fonts, bitmaps)
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
        try:
            raw = text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise WireError(f"string {text!r} is not UTF-8: {exc}") from exc
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


def _read_op(cur: _Cursor, tables: dict, width: int, height: int) -> tuple:
    opcode = cur.read_u8()
    if opcode >= len(_BY_OPCODE):
        raise WireError(f"unknown opcode {opcode}")
    kind, codes = _BY_OPCODE[opcode]
    op = [kind]
    run = 0
    for code in codes:
        if code == "s":
            op.append(cur.read_svarint())
        elif code == "u":
            op.append(cur.read_varint())
        elif code == "b":
            op.append(cur.read_bytes((run + 7) // 8))
        elif code == "n":
            run = cur.read_count(f"{kind} run", _MAX_DIM)
            op.append(run)
        else:
            table = tables[code]
            ref = cur.read_varint()
            if ref >= len(table):
                raise WireError(
                    f"{_TABLE_NAMES[code]} ref {ref} outside table"
                )
            value = table[ref]
            if code == "G" and len(value) != width * height:
                raise WireError(
                    f"{kind} of {len(value)} chars does not cover "
                    f"{width}x{height}"
                )
            if code in "SG":
                run = len(value)
            op.append(value)
    return tuple(op)


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
    tables = {"S": strings, "G": strings, "F": fonts, "B": bitmaps}
    ops = []
    for _ in range(cur.read_count("op list")):
        op = _read_op(cur, tables, width, height)
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
