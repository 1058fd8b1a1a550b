r"""The drawing data object.

Holds an ordered shape list (later shapes draw on top) over a logical
canvas.  Embedded text shapes carry real
:class:`~repro.components.text.textdata.TextData` objects — the drawing
is a multi-media component ("The drawing component will soon support
this feature"; this reproduction goes ahead and supports it, since the
section-3 anecdote depends on text inside drawings).

External representation body::

    @canvas <w> <h>
    @shape line <x0> <y0> <x1> <y1>
    @shape rect <x> <y> <w> <h> <filled>
    @shape ellipse <x> <y> <w> <h>
    @shape poly <closed> <n> <x> <y> ...
    @shape text <x> <y> <w> <h>
    \begindata{text, id}...\enddata{text, id}
    \view{textview, id}
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ...core.dataobject import DataObject
from ...core.datastream import (
    BeginObject,
    BodyLine,
    DataStreamError,
    EndObject,
    ViewRef,
)
from ...graphics.geometry import Point, Rect
from .shapes import (
    EllipseShape,
    GroupShape,
    LineShape,
    PolylineShape,
    RectShape,
    Shape,
    TextShape,
)

__all__ = ["DrawingData"]


def _texts_in(shapes: List[Shape]) -> Iterator[TextShape]:
    # A module-level generator, not a self-calling closure: a closure
    # that names itself is a reference cycle left for the collector on
    # every call, and views ask for the texts on every repaint.
    for shape in shapes:
        if isinstance(shape, GroupShape):
            yield from _texts_in(shape.children)
        elif isinstance(shape, TextShape):
            yield shape


class DrawingData(DataObject):
    """An ordered list of shapes on a canvas."""

    atk_name = "drawing"

    def __init__(self, width: int = 40, height: int = 12) -> None:
        super().__init__()
        self.canvas_width = width
        self.canvas_height = height
        self.shapes: List[Shape] = []

    # -- edits ---------------------------------------------------------------

    def add_shape(self, shape: Shape) -> Shape:
        self.shapes.append(shape)
        self.changed("shape", detail=shape)
        return shape

    def remove_shape(self, shape: Shape) -> None:
        if shape in self.shapes:
            self.shapes.remove(shape)
            self.changed("shape", detail=shape)

    def move_shape(self, shape: Shape, dx: int, dy: int) -> None:
        shape.move_by(dx, dy)
        self.changed("shape", detail=shape)

    def raise_shape(self, shape: Shape) -> None:
        """Bring ``shape`` to the top of the paint order."""
        if shape in self.shapes:
            self.shapes.remove(shape)
            self.shapes.append(shape)
            self.changed("shape", detail=shape)

    def group_shapes(self, shapes: List[Shape]) -> GroupShape:
        """Replace ``shapes`` (top-level members) with one group."""
        for shape in shapes:
            if shape not in self.shapes:
                raise ValueError(f"{shape!r} is not a top-level shape")
        group = GroupShape(shapes)
        insert_at = min(self.shapes.index(s) for s in shapes)
        for shape in shapes:
            self.shapes.remove(shape)
        self.shapes.insert(insert_at, group)
        self.changed("shape", detail=group)
        return group

    def ungroup(self, group: GroupShape) -> List[Shape]:
        """Dissolve ``group`` back into its members, in place."""
        if group not in self.shapes:
            raise ValueError(f"{group!r} is not a top-level shape")
        at = self.shapes.index(group)
        self.shapes[at:at + 1] = group.children
        self.changed("shape", detail=group)
        return list(group.children)

    def add_text(self, rect: Rect, data=None) -> TextShape:
        """Embed a text component at ``rect`` (creates one if needed)."""
        if data is None:
            from ..text.textdata import TextData

            data = TextData()
        shape = TextShape(rect, data)
        return self.add_shape(shape)

    # -- queries ----------------------------------------------------------------

    def shape_at(self, point: Point, slop: int = 1) -> Optional[Shape]:
        """Topmost shape hit at ``point`` — semantic, not bounding-box.

        This is the §3 disambiguation: a line *over* an embedded text is
        returned in preference to the text, but only where the point is
        actually near the line's ink.
        """
        for shape in reversed(self.shapes):
            if shape.hit_test(point, slop):
                return shape
        return None

    def text_shapes(self) -> List[TextShape]:
        """Embedded texts, including those inside groups, in order."""
        return list(_texts_in(self.shapes))

    def embedded_objects(self) -> List[DataObject]:
        return [s.data for s in self.text_shapes()]

    # -- external representation ---------------------------------------------------

    def write_body(self, writer) -> None:
        writer.write_body_line(
            f"@canvas {self.canvas_width} {self.canvas_height}"
        )
        for shape in self.shapes:
            self._write_shape(writer, shape)

    def _write_shape(self, writer, shape: Shape) -> None:
        writer.write_body_line(f"@shape {shape.spec()}")
        if isinstance(shape, GroupShape):
            for child in shape.children:
                self._write_shape(writer, child)
        elif isinstance(shape, TextShape):
            object_id = writer.write_object(shape.data)
            writer.write_view_ref(shape.view_type, object_id)

    def read_body(self, reader) -> None:
        self.shapes = []
        self._open_groups: List[list] = []  # [children, wanted_count]
        pending_text: Optional[TextShape] = None
        for event in reader.body_events():
            if isinstance(event, BodyLine):
                pending_text = self._read_line(event, pending_text)
            elif isinstance(event, BeginObject):
                reader.read_object(event)
            elif isinstance(event, ViewRef):
                if pending_text is None:
                    raise DataStreamError(
                        "\\view in drawing without a text shape", event.line
                    )
                data = reader.objects_by_id.get(event.object_id)
                if data is None:
                    raise DataStreamError(
                        f"unknown object id {event.object_id}", event.line
                    )
                pending_text.data = data
                pending_text.view_type = event.view_type
                pending_text = None
            elif isinstance(event, EndObject):
                break
        self.changed("shape")

    def _attach_shape(self, shape: Shape) -> None:
        """Add a parsed shape to the innermost open group, completing
        (possibly nested) groups as they fill."""
        while True:
            if not self._open_groups:
                self.shapes.append(shape)
                return
            children, wanted = self._open_groups[-1]
            children.append(shape)
            if len(children) < wanted:
                return
            self._open_groups.pop()
            shape = GroupShape(children)

    def _read_line(self, event: BodyLine,
                   pending_text: Optional[TextShape]) -> Optional[TextShape]:
        text = event.text
        if not text.strip():
            return pending_text
        parts = text.split()
        if parts[0] == "@canvas":
            self.canvas_width, self.canvas_height = int(parts[1]), int(parts[2])
            return pending_text
        if parts[0] != "@shape" or len(parts) < 2:
            raise DataStreamError(
                f"unknown drawing directive {text!r}", event.line
            )
        kind = parts[1]
        args = parts[2:]
        try:
            if kind == "line":
                self._attach_shape(LineShape(*map(int, args[:4])))
            elif kind == "rect":
                x, y, w, h, filled = map(int, args[:5])
                self._attach_shape(RectShape(Rect(x, y, w, h), bool(filled)))
            elif kind == "ellipse":
                x, y, w, h = map(int, args[:4])
                self._attach_shape(EllipseShape(Rect(x, y, w, h)))
            elif kind == "poly":
                closed = bool(int(args[0]))
                count = int(args[1])
                coords = list(map(int, args[2:2 + 2 * count]))
                points = [
                    Point(coords[i], coords[i + 1])
                    for i in range(0, len(coords), 2)
                ]
                self._attach_shape(PolylineShape(points, closed))
            elif kind == "group":
                wanted = int(args[0])
                if wanted < 1:
                    raise DataStreamError(
                        f"empty group in {text!r}", event.line
                    )
                self._open_groups.append([[], wanted])
            elif kind == "text":
                x, y, w, h = map(int, args[:4])
                shape = TextShape(Rect(x, y, w, h), data=None)
                self._attach_shape(shape)
                return shape
            else:
                raise DataStreamError(
                    f"unknown shape kind {kind!r}", event.line
                )
        except (ValueError, IndexError) as exc:
            raise DataStreamError(
                f"malformed shape {text!r}: {exc}", event.line
            ) from exc
        return pending_text
