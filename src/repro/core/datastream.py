r"""The external representation (paper section 5).

"When a data object writes out its external representation it is
enclosed in a begin/end marker pair.  The markers must be properly
nested and it must be possible to find all the data associated with an
object without actually parsing the data."

Wire format, exactly as the paper's example::

    \begindata{text, 1}
    ... text data ...
    \begindata{table, 2}
    ... the table data goes here ...
    \enddata{table, 2}
    ... more text data ...
    \view{spread, 2}
    ... rest of text data ...
    \enddata{text, 1}

* ``\begindata{type, id}`` / ``\enddata{type, id}`` bracket each data
  object; ids are unique within a document and let other objects
  reference the data (the ``\view`` construct above places a view of
  type ``spread`` on object 2).
* Body lines starting with a backslash are escaped by doubling the
  backslash, so marker detection never needs component knowledge —
  that is what makes :func:`scan_extents` possible.
* The writer enforces the paper's transport guidelines: printable
  7-bit ASCII only and physical lines of at most 80 characters.

Reading constructs data objects by type tag through the class registry
*and the dynamic loader*, so reading a document that embeds a component
the application never linked (the paper's music example) transparently
loads its code.
"""

from __future__ import annotations

import io
import re
from typing import Dict, Iterator, List, Optional, TextIO, Union

from .. import obs
from ..class_system.dynamic import ClassLoader, default_loader
from ..class_system.errors import ClassSystemError
from ..testing import faultinject
from .dataobject import DataObject

__all__ = [
    "DataStreamError",
    "BeginObject",
    "EndObject",
    "ViewRef",
    "BodyLine",
    "ObjectExtent",
    "UnknownObject",
    "DataStreamWriter",
    "DataStreamReader",
    "write_document",
    "read_document",
    "scan_extents",
    "MAX_LINE",
]

MAX_LINE = 80

_BEGIN = "\\begindata{"
_END = "\\enddata{"
_VIEW = "\\view{"

#: What a body line may not hold: anything but tab and printable 7-bit
#: ASCII.
_UNTRANSPORTABLE = re.compile("[^\t -~]")


class DataStreamError(Exception):
    """Malformed external representation."""

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Stream events
# ---------------------------------------------------------------------------

class BeginObject:
    """A ``\\begindata{type, id}`` marker."""

    __slots__ = ("type_tag", "object_id", "line")

    def __init__(self, type_tag: str, object_id: int, line: int) -> None:
        self.type_tag = type_tag
        self.object_id = object_id
        self.line = line

    def __repr__(self) -> str:
        return f"BeginObject({self.type_tag!r}, {self.object_id})"


class EndObject:
    """An ``\\enddata{type, id}`` marker."""

    __slots__ = ("type_tag", "object_id", "line")

    def __init__(self, type_tag: str, object_id: int, line: int) -> None:
        self.type_tag = type_tag
        self.object_id = object_id
        self.line = line

    def __repr__(self) -> str:
        return f"EndObject({self.type_tag!r}, {self.object_id})"


class ViewRef:
    """A ``\\view{viewtype, id}`` placement marker."""

    __slots__ = ("view_type", "object_id", "line")

    def __init__(self, view_type: str, object_id: int, line: int) -> None:
        self.view_type = view_type
        self.object_id = object_id
        self.line = line

    def __repr__(self) -> str:
        return f"ViewRef({self.view_type!r}, {self.object_id})"


class BodyLine:
    """One unescaped body line belonging to the current object."""

    __slots__ = ("text", "line")

    def __init__(self, text: str, line: int) -> None:
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"BodyLine({self.text!r})"


class ObjectExtent:
    """Where an object's data lives in a stream, found without parsing."""

    __slots__ = ("type_tag", "object_id", "start_line", "end_line", "depth")

    def __init__(self, type_tag: str, object_id: int, start_line: int,
                 end_line: int, depth: int) -> None:
        self.type_tag = type_tag
        self.object_id = object_id
        self.start_line = start_line
        self.end_line = end_line
        self.depth = depth

    @property
    def line_count(self) -> int:
        return self.end_line - self.start_line + 1

    def __repr__(self) -> str:
        return (
            f"ObjectExtent({self.type_tag!r}, id={self.object_id}, "
            f"lines {self.start_line}..{self.end_line}, depth={self.depth})"
        )


# ---------------------------------------------------------------------------
# Marker parsing
# ---------------------------------------------------------------------------

def _parse_marker(line: str, prefix: str, lineno: int):
    """Parse ``{name, id}`` after ``prefix``; return (name, id) or None."""
    if not line.startswith(prefix):
        return None
    rest = line[len(prefix):]
    close = rest.find("}")
    if close < 0:
        raise DataStreamError(f"unterminated marker {line!r}", lineno)
    inner = rest[:close]
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != 2 or not parts[0]:
        raise DataStreamError(f"malformed marker {line!r}", lineno)
    try:
        object_id = int(parts[1])
    except ValueError:
        raise DataStreamError(f"non-numeric id in marker {line!r}", lineno)
    return parts[0], object_id


def _classify_line(line: str, lineno: int):
    """Turn one physical line into a stream event."""
    if not line.startswith("\\"):
        return BodyLine(line, lineno)  # every marker starts with one
    if line.startswith("\\\\"):
        return BodyLine(line[1:], lineno)  # escaped: strip one backslash
    begin = _parse_marker(line, _BEGIN, lineno)
    if begin is not None:
        return BeginObject(begin[0], begin[1], lineno)
    end = _parse_marker(line, _END, lineno)
    if end is not None:
        return EndObject(end[0], end[1], lineno)
    view = _parse_marker(line, _VIEW, lineno)
    if view is not None:
        return ViewRef(view[0], view[1], lineno)
    raise DataStreamError(
        f"unknown directive {line.split('{')[0]!r}", lineno
    )


def _lenient_marker(line: str):
    """Classify one raw line for salvage capture.

    Returns ``("begin"|"end", type_tag, object_id)`` for a *cleanly*
    parseable marker, else ``None`` — a garbled marker or unknown
    directive is just body as far as salvage is concerned, because the
    whole point of salvage is surviving bytes the strict classifier
    rejects.  Escaped lines are body by construction.
    """
    if line.startswith("\\\\"):
        return None
    for prefix, kind in ((_BEGIN, "begin"), (_END, "end")):
        if line.startswith(prefix):
            try:
                parsed = _parse_marker(line, prefix, 0)
            except DataStreamError:
                return None
            if parsed is not None:
                return kind, parsed[0], parsed[1]
    return None


# ---------------------------------------------------------------------------
# Salvage placeholder
# ---------------------------------------------------------------------------

class UnknownObject(DataObject):
    """A component the reader could not reconstruct, preserved verbatim.

    The paper promises that a document survives travelling through an
    application that lacks (or mis-executes) one of its component
    classes: the unreadable object rides along untouched.  This is the
    data half of that promise (the view half is the quarantine
    placeholder): :attr:`raw_lines` holds the object's body exactly as
    it appeared on the wire — escapes intact, nested markers intact —
    and :meth:`write_body` re-emits it byte-for-byte under the original
    :attr:`type_tag`, so a salvaged document round-trips losslessly and
    a reader that *does* have the component gets the original data back.
    """

    atk_register = False

    def __init__(self, type_tag: str = "unknown",
                 raw_lines: Optional[List[str]] = None,
                 error: str = "") -> None:
        super().__init__()
        self._type_tag = type_tag
        self.raw_lines: List[str] = list(raw_lines or [])
        #: Human-readable reason the original read failed.
        self.error = error

    @property
    def type_tag(self) -> str:
        """The *original* component's tag, so round-trips are faithful."""
        return self._type_tag

    def write_body(self, writer: "DataStreamWriter") -> None:
        writer.write_raw_lines(self.raw_lines)

    def read_body(self, reader: "DataStreamReader") -> None:
        # Never reached through the normal path: the stream carries the
        # original component's tag, so re-reading either constructs the
        # real class or goes through salvage again.
        raise DataStreamError(
            f"UnknownObject({self._type_tag!r}) cannot parse a body"
        )

    def __repr__(self) -> str:
        return (
            f"<UnknownObject {self._type_tag!r} "
            f"lines={len(self.raw_lines)} error={self.error!r}>"
        )


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

class DataStreamWriter:
    """Writes data objects in the external representation."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else io.StringIO()
        self._next_id = 1
        self._ids: Dict[int, int] = {}      # id(dataobject) -> stream id
        self._open: List[BeginObject] = []  # marker stack
        self.lines_written = 0

    # -- ids -----------------------------------------------------------------

    def id_for(self, obj: DataObject) -> int:
        """The stream id for ``obj``, assigning the next free one."""
        key = id(obj)
        if key not in self._ids:
            self._ids[key] = self._next_id
            self._next_id += 1
        return self._ids[key]

    def is_written(self, obj: DataObject) -> bool:
        return id(obj) in self._ids

    # -- raw emission -----------------------------------------------------------

    def _emit(self, line: str) -> None:
        self.stream.write(line + "\n")
        self.lines_written += 1
        if obs.metrics_on:
            obs.registry.inc("datastream.bytes_written", len(line) + 1)
            obs.registry.inc("datastream.lines_written")

    def write_body_line(self, text: str) -> None:
        """Write one body line, enforcing the section-5 guidelines.

        Raises :class:`DataStreamError` on non-7-bit characters, control
        characters other than tab, or lines longer than 80 columns
        (including any escape prefix).  Lines starting with a backslash
        are escaped automatically.
        """
        bad = _UNTRANSPORTABLE.search(text)
        if bad is not None:
            raise DataStreamError(
                f"non-transportable character {bad.group()!r} in body line "
                f"{text!r}; the external representation is printable "
                "7-bit ASCII"
            )
        if text.startswith("\\"):
            text = "\\" + text
        if len(text) > MAX_LINE:
            raise DataStreamError(
                f"body line of {len(text)} characters exceeds the "
                f"{MAX_LINE}-column transport limit: {text[:40]!r}..."
            )
        self._emit(text)

    def write_raw_lines(self, lines: List[str]) -> None:
        """Re-emit already-encoded physical lines verbatim (salvage path).

        The lines came off a stream, so escapes and any nested markers
        are already in wire form; running them through
        :meth:`write_body_line` would double-escape them.
        """
        for line in lines:
            self._emit(line)

    def write_wrapped(self, text: str, width: int = 78) -> None:
        """Write arbitrary-length text as multiple body lines.

        A purely layout-free chunking helper for components whose body
        format is line-oriented anyway; chunk boundaries are the
        component's business to make reversible.
        """
        if text == "":
            self.write_body_line("")
            return
        for start in range(0, len(text), width):
            self.write_body_line(text[start:start + width])

    # -- structure ----------------------------------------------------------------

    def write_object(self, obj: DataObject) -> int:
        """Write ``obj`` (markers + body); returns its stream id."""
        object_id = self.id_for(obj)
        if obs.metrics_on:
            obs.registry.inc("datastream.objects_written")
        begin = BeginObject(obj.type_tag, object_id, self.lines_written + 1)
        self._open.append(begin)
        self._emit(f"\\begindata{{{obj.type_tag}, {object_id}}}")
        obj.write_body(self)
        top = self._open.pop()
        if top is not begin:  # pragma: no cover - internal invariant
            raise DataStreamError("writer marker stack corrupted")
        self._emit(f"\\enddata{{{obj.type_tag}, {object_id}}}")
        return object_id

    def write_view_ref(self, view_type: str, object_id: int) -> None:
        """Write a ``\\view`` placement for a previously written object."""
        self._emit(f"\\view{{{view_type}, {object_id}}}")

    def getvalue(self) -> str:
        """The accumulated text (only for StringIO-backed writers)."""
        if isinstance(self.stream, io.StringIO):
            return self.stream.getvalue()
        raise TypeError("writer is not backed by StringIO")


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

class DataStreamReader:
    """Reads data objects from the external representation.

    Constructs component instances by type tag through the class
    registry, falling back to the dynamic loader for never-imported
    component types.  Objects are registered by stream id so ``\\view``
    references resolve (``objects_by_id``).

    With ``salvage=True`` an embedded object that cannot be read — its
    class is unknown, or its ``read_body`` raises on its own data —
    becomes an :class:`UnknownObject` preserving the raw bytes instead
    of failing the whole document.  Structural corruption (truncated
    stream, mismatched markers) still raises :class:`DataStreamError`:
    salvage preserves what is bracketed, it does not invent brackets.
    Salvaged placeholders are appended to :attr:`salvaged`.
    """

    def __init__(self, source: Union[str, TextIO],
                 loader: Optional[ClassLoader] = None,
                 salvage: bool = False) -> None:
        text = source if isinstance(source, str) else source.read()
        self._lines = text.splitlines()
        self._pos = 0
        if obs.metrics_on:
            obs.registry.inc("datastream.bytes_read", len(text))
        self._loader = loader if loader is not None else default_loader()
        self.objects_by_id: Dict[int, DataObject] = {}
        self._depth = 0
        self.salvage = bool(salvage)
        self.salvaged: List["UnknownObject"] = []

    # -- event stream ---------------------------------------------------------

    def _next_event(self):
        if self._pos >= len(self._lines):
            return None
        line = self._lines[self._pos]
        self._pos += 1
        return _classify_line(line, self._pos)

    def body_events(self) -> Iterator[object]:
        """Yield events for the current object's body.

        The stream of events ends with (and includes) the
        :class:`EndObject` matching the most recent begin.  Nested
        :class:`BeginObject` events are yielded for the component to
        hand to :meth:`read_object` (to build the child) or
        :meth:`skip_object` (to ignore it).
        """
        while True:
            event = self._next_event()
            if event is None:
                raise DataStreamError("unexpected end of stream inside object")
            yield event
            if isinstance(event, EndObject):
                return

    def read_object(self, begin: Optional[BeginObject] = None) -> DataObject:
        """Read one complete object (markers + body) and construct it.

        If ``begin`` is None the next event must be a begin marker — the
        top-level entry point.  Otherwise ``begin`` is a marker already
        consumed from :meth:`body_events` by an embedding component.
        """
        if begin is None:
            event = self._next_event()
            while isinstance(event, BodyLine) and not event.text.strip():
                event = self._next_event()  # tolerate leading blank lines
            if not isinstance(event, BeginObject):
                raise DataStreamError(
                    f"expected \\begindata, found {event!r}",
                    getattr(event, "line", 0),
                )
            begin = event
        body_start = self._pos
        try:
            obj = self._construct(begin)
            if obs.metrics_on:
                obs.registry.inc("datastream.objects_read")
            self.objects_by_id[begin.object_id] = obj
            if faultinject.enabled:
                faultinject.maybe_raise("datastream.read")
            self._depth += 1
            try:
                obj.read_body(self)
            finally:
                self._depth -= 1
        except Exception as exc:
            if not self.salvage:
                raise
            obj = self._salvage_object(begin, body_start, exc)
            self.objects_by_id[begin.object_id] = obj
        return obj

    def skip_object(self, begin: BeginObject) -> ObjectExtent:
        """Skip past an object's data without parsing it (section 5).

        Uses only marker nesting — no component code runs — and returns
        the extent found.
        """
        depth = 1
        start = begin.line
        while depth:
            event = self._next_event()
            if event is None:
                raise DataStreamError(
                    f"no matching \\enddata for {begin!r}", start
                )
            if isinstance(event, BeginObject):
                depth += 1
            elif isinstance(event, EndObject):
                depth -= 1
                if depth == 0:
                    if (event.type_tag != begin.type_tag
                            or event.object_id != begin.object_id):
                        raise DataStreamError(
                            f"mismatched markers: {begin!r} closed by "
                            f"{event!r}", event.line,
                        )
                    return ObjectExtent(
                        begin.type_tag, begin.object_id, start, event.line, 0
                    )
        raise AssertionError("unreachable")

    def _salvage_object(self, begin: BeginObject, body_start: int,
                        exc: BaseException) -> "UnknownObject":
        """Re-read ``begin``'s body verbatim after a failed parse.

        The reader rewinds to the first body line (the failed
        ``read_body`` may have consumed any amount of the stream) and
        re-scans by marker nesting only — the section-5 guarantee that
        an object's data can be located without parsing it is exactly
        what makes salvage possible.
        """
        self._pos = body_start
        raw = self._capture_raw_body(begin)
        message = str(exc) or type(exc).__name__
        obj = UnknownObject(begin.type_tag, raw, error=message)
        self.salvaged.append(obj)
        if obs.metrics_on:
            obs.registry.inc("io.salvaged_objects")
        return obj

    def _capture_raw_body(self, begin: BeginObject) -> List[str]:
        """Collect ``begin``'s body as raw physical lines, escapes intact.

        Classification is deliberately lenient — only cleanly parseable
        begin/end markers count as structure; garbled lines are body.
        Truncation or a mismatched closing marker is structural
        corruption and raises :class:`DataStreamError`.
        """
        depth = 1
        raw: List[str] = []
        while True:
            if self._pos >= len(self._lines):
                raise DataStreamError(
                    f"no matching \\enddata for {begin!r}", begin.line
                )
            line = self._lines[self._pos]
            self._pos += 1
            marker = _lenient_marker(line)
            if marker is not None:
                kind, type_tag, object_id = marker
                if kind == "begin":
                    depth += 1
                else:
                    depth -= 1
                    if depth == 0:
                        if (type_tag != begin.type_tag
                                or object_id != begin.object_id):
                            raise DataStreamError(
                                f"mismatched markers: {begin!r} closed by "
                                f"\\enddata{{{type_tag}, {object_id}}}",
                                self._pos,
                            )
                        return raw
            raw.append(line)

    def _construct(self, begin: BeginObject) -> DataObject:
        try:
            cls = self._loader.load(begin.type_tag)
        except ClassSystemError as exc:
            raise DataStreamError(
                f"unknown component type {begin.type_tag!r} "
                f"(dynamic load failed: {exc})", begin.line,
            ) from exc
        if not issubclass(cls, DataObject):
            raise DataStreamError(
                f"type {begin.type_tag!r} is not a data object", begin.line
            )
        return cls()


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def write_document(obj: DataObject, stream: Optional[TextIO] = None) -> str:
    """Write ``obj`` as a complete document; returns the text."""
    writer = DataStreamWriter(stream if stream is not None else io.StringIO())
    writer.write_object(obj)
    if isinstance(writer.stream, io.StringIO):
        return writer.stream.getvalue()
    return ""


def read_document(source: Union[str, TextIO],
                  loader: Optional[ClassLoader] = None,
                  salvage: bool = False) -> DataObject:
    """Read one top-level data object from ``source``.

    With ``salvage=True`` unreadable embedded objects come back as
    :class:`UnknownObject` placeholders instead of failing the read.
    """
    return DataStreamReader(source, loader, salvage=salvage).read_object()


def scan_extents(source: Union[str, TextIO]) -> List[ObjectExtent]:
    """Locate every object in a stream *without parsing any body*.

    This is the paper's requirement that "it must be possible to find
    all the data associated with an object without actually parsing the
    data": the scanner looks only at marker lines and escapes.  Returns
    extents in begin-marker order with their nesting depth.
    """
    text = source if isinstance(source, str) else source.read()
    extents: List[ObjectExtent] = []
    stack: List[tuple] = []  # (BeginObject, index into extents)
    for lineno, line in enumerate(text.splitlines(), start=1):
        event = _classify_line(line, lineno)
        if isinstance(event, BeginObject):
            extents.append(
                ObjectExtent(event.type_tag, event.object_id,
                             lineno, -1, len(stack))
            )
            stack.append((event, len(extents) - 1))
        elif isinstance(event, EndObject):
            if not stack:
                raise DataStreamError(
                    f"\\enddata with no open object", lineno
                )
            begin, index = stack.pop()
            if (begin.type_tag != event.type_tag
                    or begin.object_id != event.object_id):
                raise DataStreamError(
                    f"mismatched markers: {begin!r} closed by {event!r}",
                    lineno,
                )
            extents[index].end_line = lineno
    if stack:
        begin, _ = stack[0]
        raise DataStreamError(f"unclosed object {begin!r}", begin.line)
    if obs.metrics_on:
        obs.registry.inc("datastream.objects_scanned", len(extents))
        obs.registry.inc("datastream.scans")
    return extents
