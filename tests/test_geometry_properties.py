"""Property-based tests for geometry invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics import Point, Rect, Region

coords = st.integers(min_value=-50, max_value=50)
sizes = st.integers(min_value=0, max_value=40)
rects = st.builds(Rect, coords, coords, sizes, sizes)
points = st.builds(Point, coords, coords)


@given(rects, rects)
def test_intersection_commutes(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(rects, rects)
def test_intersection_contained_in_both(a, b):
    inter = a.intersection(b)
    assert a.contains_rect(inter)
    assert b.contains_rect(inter)


@given(rects, rects)
def test_union_contains_both(a, b):
    union = a.union(b)
    assert union.contains_rect(a)
    assert union.contains_rect(b)


@given(rects, rects, points)
def test_intersection_pointwise_semantics(a, b, p):
    inside = a.contains_point(p) and b.contains_point(p)
    assert a.intersection(b).contains_point(p) == inside


@given(rects, rects, points)
def test_difference_pointwise_semantics(a, b, p):
    pieces = a.difference(b)
    in_pieces = any(piece.contains_point(p) for piece in pieces)
    expected = a.contains_point(p) and not b.contains_point(p)
    assert in_pieces == expected


@given(rects, rects)
def test_difference_area_conservation(a, b):
    pieces = a.difference(b)
    assert sum(p.area for p in pieces) == a.area - a.intersection(b).area
    for i, first in enumerate(pieces):
        for second in pieces[i + 1:]:
            assert not first.intersects(second)


@given(rects, coords, coords)
def test_offset_preserves_size(rect, dx, dy):
    moved = rect.offset(dx, dy)
    assert (moved.width, moved.height) == (rect.width, rect.height)


@settings(max_examples=50)
@given(st.lists(rects, max_size=6))
def test_region_invariants_after_adds(rect_list):
    region = Region()
    for rect in rect_list:
        region.add(rect)
        region.check_invariants()
    # Area equals the area of the pointwise union.
    box = region.bounding_box()
    brute = 0
    for p in box.points():
        if any(r.contains_point(p) for r in rect_list):
            brute += 1
    assert region.area == brute


@settings(max_examples=50)
@given(st.lists(rects, min_size=1, max_size=4), rects, points)
def test_region_subtract_pointwise(rect_list, hole, probe):
    region = Region()
    for rect in rect_list:
        region.add(rect)
    region.subtract(hole)
    region.check_invariants()
    expected = (
        any(r.contains_point(probe) for r in rect_list)
        and not hole.contains_point(probe)
    )
    assert region.contains_point(probe) == expected


@given(rects, rects)
def test_region_union_order_independent(a, b):
    first = Region()
    first.add(a)
    first.add(b)
    second = Region()
    second.add(b)
    second.add(a)
    assert first == second


# -- the tuple-backed Rect against the attribute formulas it replaced --

signed_sizes = st.integers(min_value=-5, max_value=40)
any_rects = st.builds(Rect, coords, coords, signed_sizes, signed_sizes)


def _old_empty(r):
    return r.width <= 0 or r.height <= 0


def _old_intersection(a, b):
    if (_old_empty(a) or _old_empty(b) or not (
            a.left < b.left + b.width and b.left < a.left + a.width
            and a.top < b.top + b.height and b.top < a.top + a.height)):
        return (0, 0, 0, 0)
    left, top = max(a.left, b.left), max(a.top, b.top)
    return (left, top,
            min(a.left + a.width, b.left + b.width) - left,
            min(a.top + a.height, b.top + b.height) - top)


def _old_union(a, b):
    if _old_empty(a):
        return tuple(b)
    if _old_empty(b):
        return tuple(a)
    left, top = min(a.left, b.left), min(a.top, b.top)
    return (left, top,
            max(a.left + a.width, b.left + b.width) - left,
            max(a.top + a.height, b.top + b.height) - top)


@given(any_rects, any_rects)
def test_intersection_matches_old_formula(a, b):
    assert tuple(a.intersection(b)) == _old_intersection(a, b)
    assert a.intersects(b) == (_old_intersection(a, b)[2] > 0)


@given(any_rects, any_rects)
def test_union_matches_old_formula(a, b):
    union = a.union(b)
    assert type(union) is Rect
    assert tuple(union) == _old_union(a, b)


@given(any_rects, coords, coords)
def test_offset_matches_old_formula(rect, dx, dy):
    moved = rect.offset(dx, dy)
    assert type(moved) is Rect
    assert tuple(moved) == (rect.left + dx, rect.top + dy,
                            rect.width, rect.height)


@given(any_rects, any_rects)
def test_equality_and_hash_treat_every_empty_rect_alike(a, b):
    both_empty = _old_empty(a) and _old_empty(b)
    same = both_empty or (tuple(a) == tuple(b))
    assert (a == b) == same
    assert (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)


@given(any_rects)
def test_rect_fields_iteration_and_repr(rect):
    left, top, width, height = rect
    assert (rect.left, rect.top, rect.width, rect.height) == (
        left, top, width, height)
    assert (rect.right, rect.bottom) == (left + width, top + height)
    assert repr(rect) == f"Rect({left}, {top}, {width}, {height})"
    # A rect never equals the plain tuple of its fields, either way round.
    assert rect != (left, top, width, height)
    assert (left, top, width, height) != rect


@given(any_rects, points)
def test_rects_and_points_stay_immutable(rect, point):
    for name in ("left", "top", "width", "height", "extra"):
        try:
            setattr(rect, name, 1)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"Rect.{name} was assignable")
    for name in ("x", "y", "extra"):
        try:
            setattr(point, name, 1)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"Point.{name} was assignable")
    assert point != tuple(point) and tuple(point) != point
    assert point == Point(*point) and hash(point) == hash(Point(*point))
    assert repr(point) == f"Point({point.x}, {point.y})"


def test_float_coordinates_truncate_as_before():
    assert tuple(Rect(1.9, 2.5, 3.2, 4.99)) == (1, 2, 3, 4)
    assert tuple(Point(1.9, -2.5)) == (1, -2)
    assert tuple(Rect(0, 0, 2, 2).offset(1.5, 2.5)) == (1, 2, 2, 2)
