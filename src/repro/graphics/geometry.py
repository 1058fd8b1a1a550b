"""Geometry primitives for the graphics layer (paper section 4).

Everything in the toolkit's imaging model is expressed in terms of
points and rectangles: each view owns a rectangle completely contained
in its parent's rectangle, drawables carry a coordinate-system origin,
and update events carry damage rectangles.  :class:`Region` (a disjoint
rectangle set) backs clipping and damage accumulation.

Coordinates are integers (device pixels or character cells); the origin
is the upper-left corner with y growing downwards, as on the bitmapped
displays of the period.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, List, Optional

__all__ = ["Point", "Rect", "Region"]

_new = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_hash = tuple.__hash__


class Point(tuple):
    """An immutable 2-D integer point.

    A tuple underneath, so construction and field reads stay in C; it
    equals only another point, never a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int) -> "Point":
        return _new(cls, (int(x), int(y)))

    x = property(itemgetter(0))
    y = property(itemgetter(1))

    def offset(self, dx: int, dy: int) -> "Point":
        """Return this point translated by ``(dx, dy)``."""
        return _new(Point, (int(self[0] + dx), int(self[1] + dy)))

    def __add__(self, other: "Point") -> "Point":
        return Point(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other: "Point") -> "Point":
        return Point(self[0] - other[0], self[1] - other[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and _tuple_eq(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"Point({self[0]}, {self[1]})"


class Rect(tuple):
    """An immutable axis-aligned rectangle ``(left, top, width, height)``.

    A rectangle with non-positive width or height is *empty*: it contains
    no points, intersects nothing, and unions as the identity.

    A tuple underneath, so construction and field reads stay in C (the
    device clips and the update queue build rects in their hot loops).
    It equals only another rect, never a plain tuple, and every empty
    rect equals every other.
    """

    __slots__ = ()

    def __new__(cls, left: int, top: int, width: int, height: int) -> "Rect":
        return _new(cls, (int(left), int(top), int(width), int(height)))

    left = property(itemgetter(0))
    top = property(itemgetter(1))
    width = property(itemgetter(2))
    height = property(itemgetter(3))

    @classmethod
    def from_corners(cls, x0: int, y0: int, x1: int, y1: int) -> "Rect":
        """Build a rectangle from two opposite corners (any order)."""
        left, right = sorted((int(x0), int(x1)))
        top, bottom = sorted((int(y0), int(y1)))
        return cls(left, top, right - left, bottom - top)

    @classmethod
    def empty(cls) -> "Rect":
        return _EMPTY

    # -- derived coordinates -------------------------------------------

    @property
    def right(self) -> int:
        """One past the rightmost column (exclusive)."""
        return self[0] + self[2]

    @property
    def bottom(self) -> int:
        """One past the bottommost row (exclusive)."""
        return self[1] + self[3]

    @property
    def origin(self) -> Point:
        return Point(self.left, self.top)

    @property
    def center(self) -> Point:
        return Point(self.left + self.width // 2, self.top + self.height // 2)

    @property
    def area(self) -> int:
        return 0 if self.is_empty() else self.width * self.height

    def is_empty(self) -> bool:
        return self[2] <= 0 or self[3] <= 0

    # -- predicates ------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside (edges inclusive on top/left)."""
        return (
            self.left <= point.x < self.right
            and self.top <= point.y < self.bottom
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely within this rectangle.

        An empty ``other`` is contained by anything — the view tree uses
        this when checking the invariant that children fit their parent.
        """
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        return (
            self.left <= other.left
            and self.top <= other.top
            and other.right <= self.right
            and other.bottom <= self.bottom
        )

    def intersects(self, other: "Rect") -> bool:
        left, top, width, height = self
        oleft, otop, owidth, oheight = other
        return (width > 0 and height > 0 and owidth > 0 and oheight > 0
                and left < oleft + owidth and oleft < left + width
                and top < otop + oheight and otop < top + height)

    # -- constructions ---------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect":
        """The overlapping rectangle, or an empty rect if disjoint."""
        left, top, width, height = self
        oleft, otop, owidth, oheight = other
        right = min(left + width, oleft + owidth)
        bottom = min(top + height, otop + oheight)
        if left < oleft:
            left = oleft
        if top < otop:
            top = otop
        if (width <= 0 or height <= 0 or owidth <= 0 or oheight <= 0
                or left >= right or top >= bottom):
            return _EMPTY
        return _new(Rect, (left, top, right - left, bottom - top))

    def union(self, other: "Rect") -> "Rect":
        """The smallest rectangle covering both (empty rects ignored)."""
        left, top, width, height = self
        if width <= 0 or height <= 0:
            return other
        oleft, otop, owidth, oheight = other
        if owidth <= 0 or oheight <= 0:
            return self
        right = max(left + width, oleft + owidth)
        bottom = max(top + height, otop + oheight)
        if oleft < left:
            left = oleft
        if otop < top:
            top = otop
        return _new(Rect, (left, top, right - left, bottom - top))

    def offset(self, dx: int, dy: int) -> "Rect":
        return _new(Rect, (int(self[0] + dx), int(self[1] + dy),
                           self[2], self[3]))

    def inset(self, dx: int, dy: int) -> "Rect":
        """Shrink by ``dx`` on each side horizontally and ``dy`` vertically.

        Negative insets grow the rectangle (the frame view uses a
        negative inset to build its enlarged divider grab zone, §3).
        """
        return Rect(
            self.left + dx, self.top + dy, self.width - 2 * dx, self.height - 2 * dy
        )

    def difference(self, other: "Rect") -> List["Rect"]:
        """This rectangle minus ``other``, as up to four disjoint rects."""
        clip = self.intersection(other)
        if clip.is_empty():
            return [] if self.is_empty() else [self]
        pieces = []
        if clip.top > self.top:  # band above
            pieces.append(Rect(self.left, self.top, self.width, clip.top - self.top))
        if clip.bottom < self.bottom:  # band below
            pieces.append(
                Rect(self.left, clip.bottom, self.width, self.bottom - clip.bottom)
            )
        if clip.left > self.left:  # left slab beside the clip band
            pieces.append(
                Rect(self.left, clip.top, clip.left - self.left, clip.height)
            )
        if clip.right < self.right:  # right slab beside the clip band
            pieces.append(
                Rect(clip.right, clip.top, self.right - clip.right, clip.height)
            )
        return pieces

    # -- iteration / comparison -------------------------------------------

    def points(self) -> Iterator[Point]:
        """Iterate every integer point inside (row-major)."""
        for y in range(self.top, self.bottom):
            for x in range(self.left, self.right):
                yield Point(x, y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rect):
            return False if isinstance(other, tuple) else NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return _tuple_eq(self, other)

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        if self.is_empty():
            return hash("empty-rect")
        return _tuple_hash(self)

    def __repr__(self) -> str:
        return f"Rect({self[0]}, {self[1]}, {self[2]}, {self[3]})"


_EMPTY = Rect(0, 0, 0, 0)


class Region:
    """A set of points represented as disjoint rectangles.

    Used for clip shapes and damage accumulation.  The representation
    invariant — rectangles pairwise disjoint, none empty — is maintained
    by construction and checked by :meth:`check_invariants` (exercised by
    the property-based tests).
    """

    __slots__ = ("_rects",)

    def __init__(self, rects: Optional[Iterable[Rect]] = None) -> None:
        self._rects: List[Rect] = []
        for rect in rects or ():
            self.add(rect)

    @classmethod
    def from_rect(cls, rect: Rect) -> "Region":
        return cls([rect])

    def is_empty(self) -> bool:
        return not self._rects

    @property
    def rects(self) -> List[Rect]:
        """The disjoint rectangles (a copy)."""
        return list(self._rects)

    @property
    def area(self) -> int:
        return sum(r.area for r in self._rects)

    def bounding_box(self) -> Rect:
        box = Rect.empty()
        for rect in self._rects:
            box = box.union(rect)
        return box

    def contains_point(self, point: Point) -> bool:
        return any(r.contains_point(point) for r in self._rects)

    def intersects_rect(self, rect: Rect) -> bool:
        return any(r.intersects(rect) for r in self._rects)

    def add(self, rect: Rect) -> None:
        """Union ``rect`` into the region, keeping rects disjoint."""
        if rect.is_empty():
            return
        pending = [rect]
        for existing in self._rects:
            next_pending = []
            for piece in pending:
                next_pending.extend(piece.difference(existing))
            pending = next_pending
            if not pending:
                return
        self._rects.extend(pending)

    def add_region(self, other: "Region") -> None:
        for rect in other._rects:
            self.add(rect)

    def subtract(self, rect: Rect) -> None:
        """Remove ``rect``'s points from the region."""
        if rect.is_empty():
            return
        result: List[Rect] = []
        for existing in self._rects:
            result.extend(existing.difference(rect))
        self._rects = result

    def intersect_rect(self, rect: Rect) -> "Region":
        """Return a new region clipped to ``rect``."""
        clipped = Region()
        for existing in self._rects:
            piece = existing.intersection(rect)
            if not piece.is_empty():
                clipped._rects.append(piece)
        return clipped

    def clear(self) -> None:
        self._rects.clear()

    def check_invariants(self) -> None:
        """Raise AssertionError if the representation invariant is broken."""
        for rect in self._rects:
            assert not rect.is_empty(), f"empty rect {rect} in region"
        for i, a in enumerate(self._rects):
            for b in self._rects[i + 1:]:
                assert not a.intersects(b), f"overlapping rects {a} and {b}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        if self.area != other.area:
            return False
        # Same area and mutual containment of every rect => same point set.
        return all(
            other.intersect_rect(r).area == r.area for r in self._rects
        )

    def __repr__(self) -> str:
        return f"Region({self._rects!r})"
