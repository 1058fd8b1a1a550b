r"""The multi-font text data object (paper sections 1, 2, 5).

"The text data object contains the actual characters, style information
and pointers to embedded data objects.  It also provides ways to alter
the data, such as inserting characters and deleting characters."

Representation
--------------
The buffer is a character sequence in which each embedded object
occupies exactly one position, held as the Unicode object-replacement
character (``OBJECT_CHAR``).  Style spans and embedded placements are
kept in side tables that the mutators adjust, so every position-bearing
structure stays consistent across edits.  Views' carets are
:class:`~repro.components.text.marks.Mark` s registered with the
buffer's mark set.

External representation
-----------------------
The body between the ``\begindata{text, id}`` markers is:

* ``@style <name> <start> <length>`` lines, one per style span
  (positions count embedded-object placeholders);
* content lines, where a trailing single backslash means "no newline
  here" (used both to wrap long lines at the 80-column transport limit
  and to interrupt a line for an embedded object); literal backslashes
  are doubled and a leading ``@`` is doubled;
* each embedded object's data written inline (nested
  ``\begindata``/``\enddata``) followed by ``\view{<viewtype>, <id>}``
  at its placement point — byte-for-byte the shape of the paper's
  section-5 example.

All mutators follow the delayed-update discipline: they change the
buffer, record a change, and notify observers; they never touch views.
Change vocabulary: ``insert``, ``delete``, ``embed``, ``style`` with
``where`` = position and ``extent`` = length.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple, Union

from ...core.dataobject import DataObject
from ...core.datastream import (
    BeginObject,
    BodyLine,
    DataStreamError,
    EndObject,
    ViewRef,
)
from .marks import Mark, MarkSet, RIGHT
from .styles import Style, StyleSpan, style_named

__all__ = ["TextData", "EmbeddedObject", "OBJECT_CHAR"]

#: The buffer placeholder occupied by an embedded object.
OBJECT_CHAR = "￼"

_WRAP_WIDTH = 76  # encoded columns before a continuation split


class EmbeddedObject:
    """One embedded component: the data object plus its placement."""

    __slots__ = ("data", "view_type", "mark")

    def __init__(self, data: DataObject, view_type: str, mark: Mark) -> None:
        self.data = data
        self.view_type = view_type
        self.mark = mark

    @property
    def pos(self) -> int:
        return self.mark.pos

    def __repr__(self) -> str:
        return (
            f"EmbeddedObject({self.data.type_tag}, view={self.view_type!r}, "
            f"pos={self.pos})"
        )


class TextData(DataObject):
    """Editable multi-font text with embedded objects."""

    atk_name = "text"

    def __init__(self, text: str = "") -> None:
        super().__init__()
        self._chars: List[str] = []
        self.marks = MarkSet()
        self.spans: List[StyleSpan] = []
        self._embeds: List[EmbeddedObject] = []
        if text:
            self.insert(0, text)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self._chars)

    def char_at(self, pos: int) -> str:
        return self._chars[pos]

    def text(self, start: int = 0, end: Optional[int] = None) -> str:
        """The raw buffer slice (embedded objects appear as OBJECT_CHAR)."""
        if end is None:
            end = len(self._chars)
        return "".join(self._chars[start:end])

    def plain_text(self) -> str:
        """The buffer with embedded-object placeholders removed."""
        return "".join(c for c in self._chars if c != OBJECT_CHAR)

    def search(self, needle: str, start: int = 0) -> int:
        """Offset of ``needle`` at or after ``start``, or -1."""
        return self.text().find(needle, start)

    def line_count(self) -> int:
        return self.text().count("\n") + 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _check_range(self, pos: int, length: int = 0) -> None:
        if not 0 <= pos <= len(self._chars):
            raise IndexError(f"position {pos} outside buffer of {len(self._chars)}")
        if not 0 <= pos + length <= len(self._chars):
            raise IndexError(
                f"range {pos}+{length} outside buffer of {len(self._chars)}"
            )

    def insert(self, pos: int, text: str) -> None:
        """Insert ``text`` at ``pos`` and notify observers.

        ``text`` may contain newlines but not the reserved placeholder
        character; use :meth:`insert_object` to embed components.
        """
        if OBJECT_CHAR in text:
            raise ValueError("use insert_object() to embed components")
        if not text:
            return
        self._check_range(pos)
        self._chars[pos:pos] = list(text)
        self.marks.adjust_insert(pos, len(text))
        for span in self.spans:
            span.adjust_insert(pos, len(text))
        self.changed("insert", where=pos, extent=len(text))

    def append(self, text: str) -> None:
        self.insert(self.length, text)

    def delete(self, pos: int, length: int) -> None:
        """Delete ``length`` characters at ``pos`` and notify observers.

        Embedded objects inside the range are removed from the embed
        table (their data objects are *not* destroyed — other views may
        still display them; ownership is the caller's).
        """
        if length <= 0:
            return
        self._check_range(pos, length)
        removed_embeds = [
            embed for embed in self._embeds if pos <= embed.pos < pos + length
        ]
        for embed in removed_embeds:
            self._embeds.remove(embed)
            self.marks.release(embed.mark)
        del self._chars[pos:pos + length]
        self.marks.adjust_delete(pos, length)
        for span in self.spans:
            span.adjust_delete(pos, length)
        self.spans = [s for s in self.spans if not s.is_empty()]
        self.changed("delete", where=pos, extent=length)

    def replace(self, pos: int, length: int, text: str) -> None:
        self.delete(pos, length)
        self.insert(pos, text)

    # ------------------------------------------------------------------
    # Embedded objects (the architecture's central feature)
    # ------------------------------------------------------------------

    def insert_object(self, pos: int, data: DataObject,
                      view_type: Optional[str] = None) -> EmbeddedObject:
        """Embed ``data`` at ``pos``.

        ``view_type`` names the view class to place on the object
        (datastream ``\\view`` tag); it defaults to ``<type>view``.
        The text component neither knows nor cares what the component
        is — "authors of new objects are strongly encouraged to handle
        the inclusion of arbitrary objects".
        """
        self._check_range(pos)
        if view_type is None:
            view_type = f"{data.type_tag}view"
        self._chars[pos:pos] = [OBJECT_CHAR]
        self.marks.adjust_insert(pos, 1)
        for span in self.spans:
            span.adjust_insert(pos, 1)
        # RIGHT gravity: an insertion exactly at the placeholder pushes
        # the placeholder right, and the mark must follow it.
        mark = self.marks.create(pos, RIGHT)
        embed = EmbeddedObject(data, view_type, mark)
        self._embeds.append(embed)
        self.changed("embed", where=pos, extent=1, detail=embed)
        return embed

    def append_object(self, data: DataObject,
                      view_type: Optional[str] = None) -> EmbeddedObject:
        return self.insert_object(self.length, data, view_type)

    def embeds(self) -> List[EmbeddedObject]:
        """Embedded objects in buffer order."""
        return sorted(self._embeds, key=lambda e: e.pos)

    def embedded_at(self, pos: int) -> Optional[EmbeddedObject]:
        for embed in self._embeds:
            if embed.pos == pos:
                return embed
        return None

    def embedded_objects(self) -> List[DataObject]:
        return [embed.data for embed in self.embeds()]

    # ------------------------------------------------------------------
    # Styles
    # ------------------------------------------------------------------

    def add_style(self, start: int, end: int,
                  style: Union[str, Style]) -> StyleSpan:
        """Apply a style to ``[start, end)`` and notify observers."""
        self._check_range(start, end - start)
        if isinstance(style, str):
            style = style_named(style)
        span = StyleSpan(start, end, style)
        self.spans.append(span)
        self.changed("style", where=start, extent=end - start)
        return span

    def clear_styles(self, start: int, end: int) -> int:
        """Remove spans lying entirely inside ``[start, end)``."""
        before = len(self.spans)
        self.spans = [
            s for s in self.spans if not (start <= s.start and s.end <= end)
        ]
        removed = before - len(self.spans)
        if removed:
            self.changed("style", where=start, extent=end - start)
        return removed

    def styles_at(self, pos: int) -> List[Style]:
        return [span.style for span in self.spans if span.covers(pos)]

    def runs(self, start: int, end: int) -> Iterator[Tuple[int, int, List[Style]]]:
        """Yield ``(run_start, run_end, styles)`` over ``[start, end)``.

        A run is a maximal range whose every position carries the same
        style set, so consumers (the text view's wrap loop, drawing)
        can resolve fonts and paragraph properties once per run instead
        of once per character.  Runs are contiguous and cover the whole
        range in order.
        """
        if end <= start:
            return
        edges = {start, end}
        for span in self.spans:
            for edge in (span.start, span.end):
                if start < edge < end:
                    edges.add(edge)
        points = sorted(edges)
        for run_start, run_end in zip(points, points[1:]):
            yield (run_start, run_end, self.styles_at(run_start))

    # ------------------------------------------------------------------
    # Paragraph iteration (consumed by views)
    # ------------------------------------------------------------------

    def segments(self) -> Iterator[Tuple[str, int, object]]:
        """Yield ``(kind, pos, payload)`` runs in buffer order.

        ``("text", pos, string)`` for maximal runs of plain characters
        (which may contain newlines), ``("embed", pos, EmbeddedObject)``
        for placements.
        """
        embeds_by_pos = {embed.pos: embed for embed in self._embeds}
        text = self.text()
        run_start = 0
        pos = text.find(OBJECT_CHAR)
        while pos >= 0:
            if pos > run_start:
                yield ("text", run_start, text[run_start:pos])
            embed = embeds_by_pos.get(pos)
            if embed is not None:
                yield ("embed", pos, embed)
            run_start = pos + 1
            pos = text.find(OBJECT_CHAR, run_start)
        if run_start < len(text):
            yield ("text", run_start, text[run_start:])

    # ------------------------------------------------------------------
    # External representation
    # ------------------------------------------------------------------

    def write_body(self, writer) -> None:
        for span in self.spans:
            if not span.is_empty():
                writer.write_body_line(
                    f"@style {span.style.name} {span.start} {span.length}"
                )

        # The encoded text of the logical line currently open.
        open_line = ""

        def flush(continue_line: bool) -> None:
            """Emit the open line, wrapping at the transport width.

            A trailing single backslash means "this logical line is not
            finished": used for width wraps, for interruptions by an
            embedded object, and for a document not ending in newline.
            A wrap never splits an escape pair.
            """
            nonlocal open_line
            start = 0
            while len(open_line) - start > _WRAP_WIDTH:
                stop = start + _WRAP_WIDTH
                if _splits_pair(open_line, start, stop):
                    stop -= 1
                writer.write_body_line(open_line[start:stop] + "\\")
                start = stop
            suffix = "\\" if continue_line else ""
            writer.write_body_line(open_line[start:] + suffix)
            open_line = ""

        wrote_anything = False
        for kind, _pos, payload in self.segments():
            if kind == "text":
                *lines, last = _escape(payload).split("\n")
                for line in lines:
                    open_line += line
                    flush(continue_line=False)
                    wrote_anything = True
                open_line += last
            else:  # embed: interrupt the open line, write data + placement
                flush(continue_line=True)
                wrote_anything = True
                object_id = writer.write_object(payload.data)
                writer.write_view_ref(payload.view_type, object_id)
        if open_line or not wrote_anything:
            flush(continue_line=True)  # final partial line: no newline

    def read_body(self, reader) -> None:
        self._chars = []
        self.spans = []
        self._embeds = []
        self.marks = MarkSet()
        content: List[str] = []
        line_open = False  # previous physical line ended with continuation

        def append_text(text: str) -> None:
            content.extend(text)

        for event in reader.body_events():
            if isinstance(event, BodyLine):
                raw = event.text
                if raw.startswith("@style "):
                    self._read_style_line(raw, event.line)
                    continue
                decoded, continued = _decode_content_line(raw, event.line)
                append_text(decoded)
                if not continued:
                    append_text("\n")
                line_open = continued
            elif isinstance(event, BeginObject):
                reader.read_object(event)  # registers in objects_by_id
            elif isinstance(event, ViewRef):
                data = reader.objects_by_id.get(event.object_id)
                if data is None:
                    raise DataStreamError(
                        f"\\view references unknown object {event.object_id}",
                        event.line,
                    )
                pos = len(content)
                content.append(OBJECT_CHAR)
                mark = self.marks.create(pos, RIGHT)
                self._embeds.append(
                    EmbeddedObject(data, event.view_type, mark)
                )
            elif isinstance(event, EndObject):
                break
        self._chars = content
        # Re-pin embed marks (content assembly didn't go through insert()).
        for embed in self._embeds:
            embed.mark.pos = min(embed.mark.pos, len(self._chars))
        self.changed("insert", where=0, extent=len(self._chars))

    def _read_style_line(self, raw: str, lineno: int) -> None:
        parts = raw.split()
        if len(parts) != 4:
            raise DataStreamError(f"malformed style line {raw!r}", lineno)
        _, name, start, length = parts
        try:
            start_pos, span_len = int(start), int(length)
        except ValueError:
            raise DataStreamError(f"malformed style line {raw!r}", lineno)
        self.spans.append(
            StyleSpan(start_pos, start_pos + span_len, style_named(name))
        )


def _escape(text: str) -> str:
    """Content-line encoding: backslashes and ``@`` are doubled."""
    return text.replace("\\", "\\\\").replace("@", "@@")


def _splits_pair(encoded: str, start: int, stop: int) -> bool:
    """Would cutting ``encoded`` at ``stop`` split an escape pair?

    ``start`` is a unit boundary.  Escape characters come only in
    pairs, so the run of one escape character ending at ``stop`` (and
    beginning at a unit boundary no earlier than ``start``) ends
    mid-pair exactly when its length is odd.
    """
    char = encoded[stop - 1]
    if char != "\\" and char != "@":
        return False
    piece = encoded[start:stop]
    return (len(piece) - len(piece.rstrip(char))) % 2 == 1


#: The longest well-formed prefix of a content line: plain characters
#: and escape pairs.  Whatever stops it is a continuation backslash or
#: an error.
_WELL_FORMED = re.compile(r"(?:[^\\@]+|\\\\|@@)*")


def _decode_content_line(raw: str, lineno: int) -> Tuple[str, bool]:
    """Decode one encoded content line; returns (text, continued)."""
    if "\\" not in raw and "@" not in raw:
        return (raw, False)
    end = _WELL_FORMED.match(raw).end()
    continued = False
    if end < len(raw):
        if raw[end] == "@":
            raise DataStreamError(
                f"unknown text directive in {raw!r}", lineno
            )
        if end < len(raw) - 1:
            raise DataStreamError(
                f"stray backslash in content line {raw!r}", lineno
            )
        continued = True
    return (raw[:end].replace("\\\\", "\\").replace("@@", "@"), continued)
