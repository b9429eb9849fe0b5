"""The Hightower line router (section 5.2.3) — baseline.

Escape-line search: run expansion lines from both terminals, repeatedly
pick for every line the escape line that gets past the blocking obstacle,
and stop when a line of the A set intersects a line of the B set.  Fast
for simple mazes and tends to find minimum-bend paths, but — exactly as
the paper notes when rejecting it — it does *not* guarantee a connection:
only a handful of escape points per line are probed, so it can miss
routes the exhaustive line-expansion router finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.geometry import Direction, Orientation, Point, normalize_path, path_bends
from .lee import path_crossings
from .line_expansion import RouteResult, SearchStats
from .plane import Plane
from .reference import ReferenceSnapshot

MAX_LEVELS = 14
MAX_ESCAPES_PER_LINE = 6


@dataclass(frozen=True)
class _Line:
    """An expansion line: through ``origin``, along ``orientation``,
    covering [lo, hi] on the varying axis."""

    orientation: Orientation
    index: int
    lo: int
    hi: int
    origin: Point
    parent: "_Line | None" = None

    def contains(self, p: Point) -> bool:
        if self.orientation is Orientation.HORIZONTAL:
            return p.y == self.index and self.lo <= p.x <= self.hi
        return p.x == self.index and self.lo <= p.y <= self.hi

    def point_at(self, v: int) -> Point:
        if self.orientation is Orientation.HORIZONTAL:
            return Point(v, self.index)
        return Point(self.index, v)


def _trace_line(snap: ReferenceSnapshot, start: Point, orientation: Orientation) -> _Line:
    """Longest legal wire segment through ``start`` along ``orientation``."""
    if orientation is Orientation.HORIZONTAL:
        pos_dir, neg_dir = Direction.RIGHT, Direction.LEFT
        v0 = start.x
    else:
        pos_dir, neg_dir = Direction.UP, Direction.DOWN
        v0 = start.y
    hi = v0
    p = start
    while True:
        q = p.step(pos_dir)
        if not snap.enterable(q, pos_dir):
            break
        p = q
        hi += 1
    lo = v0
    p = start
    while True:
        q = p.step(neg_dir)
        if not snap.enterable(q, neg_dir):
            break
        p = q
        lo -= 1
    return _Line(orientation, start.y if orientation is Orientation.HORIZONTAL else start.x, lo, hi, start)


def _escape_points(line: _Line, toward: Point) -> list[int]:
    """Candidate escape coordinates: the target-aligned point, the line
    ends, the origin, and midpoints — the classic heuristic probe set."""
    target_v = toward.x if line.orientation is Orientation.HORIZONTAL else toward.y
    origin_v = (
        line.origin.x if line.orientation is Orientation.HORIZONTAL else line.origin.y
    )
    candidates = [
        max(line.lo, min(line.hi, target_v)),
        line.lo,
        line.hi,
        origin_v,
        (line.lo + line.hi) // 2,
    ]
    out: list[int] = []
    for v in candidates:
        if v not in out:
            out.append(v)
    return out[:MAX_ESCAPES_PER_LINE]


def _intersection(a: _Line, b: _Line, snap: ReferenceSnapshot) -> Point | None:
    if a.orientation is b.orientation:
        if a.orientation is not b.orientation or a.index != b.index:
            return None
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if lo > hi:
            return None
        p = a.point_at(lo)
        return p if p not in snap.foreign_any else None
    h, v = (a, b) if a.orientation is Orientation.HORIZONTAL else (b, a)
    if v.lo <= h.index <= v.hi and h.lo <= v.index <= h.hi:
        p = Point(v.index, h.index)
        if p not in snap.foreign_any:
            return p
    return None


def _walk_back(line: _Line, meet: Point) -> list[Point]:
    """Bend points from the meeting point back to the originating terminal."""
    points = [meet]
    cursor: _Line | None = line
    while cursor is not None:
        points.append(cursor.origin)
        cursor = cursor.parent
    return points


def route_hightower(
    plane: Plane,
    net: str,
    start: Point,
    start_directions: Iterable[Direction],
    targets: Mapping[Point, frozenset[Direction] | None] | Iterable[Point],
    *,
    allow: frozenset[Point] = frozenset(),
    stats: SearchStats | None = None,
) -> RouteResult | None:
    """Escape-line search between ``start`` and the nearest target point.

    Multipoint target sets are reduced to the target nearest the start
    (line probing toward a cloud is not part of the classic algorithm).
    """
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    if start in targets:
        return RouteResult(path=[start], bends=0, crossings=0, length=0)
    goal = min(targets, key=lambda p: p.manhattan(start))

    snap = ReferenceSnapshot(plane, net, allow)
    a_lines = [_trace_line(snap, start, d.orientation) for d in start_directions]
    b_lines = [
        _trace_line(snap, goal, o)
        for o in (Orientation.HORIZONTAL, Orientation.VERTICAL)
    ]
    expanded = len(a_lines) + len(b_lines)

    for _level in range(MAX_LEVELS):
        meet = _find_meeting(a_lines, b_lines, snap)
        if meet is not None:
            return _build_result(snap, meet, stats, expanded)
        a_lines, grew_a = _expand(snap, a_lines, goal)
        expanded += grew_a
        meet = _find_meeting(a_lines, b_lines, snap)
        if meet is not None:
            return _build_result(snap, meet, stats, expanded)
        b_lines, grew_b = _expand(snap, b_lines, start)
        expanded += grew_b
        if not grew_a and not grew_b:
            break
    if stats is not None:
        stats.states_expanded += expanded
        stats.routes += 1
        stats.failures += 1
    return None


def _find_meeting(a_lines, b_lines, snap):
    for la in a_lines:
        for lb in b_lines:
            p = _intersection(la, lb, snap)
            if p is not None:
                return (la, lb, p)
    return None


def _expand(snap, lines, toward):
    new_lines = list(lines)
    seen = {(l.orientation, l.index, l.lo, l.hi) for l in lines}
    grown = 0
    for line in lines:
        for v in _escape_points(line, toward):
            origin = line.point_at(v)
            if origin in snap.foreign_any:
                continue
            escape = _trace_line(snap, origin, line.orientation.perpendicular)
            key = (escape.orientation, escape.index, escape.lo, escape.hi)
            if key in seen:
                continue
            seen.add(key)
            new_lines.append(
                _Line(
                    escape.orientation,
                    escape.index,
                    escape.lo,
                    escape.hi,
                    origin,
                    parent=line,
                )
            )
            grown += 1
    return new_lines, grown


def _build_result(snap, meeting, stats, expanded):
    la, lb, p = meeting
    forward = _walk_back(la, p)[::-1]  # start ... meet
    backward = _walk_back(lb, p)[1:]  # meet-exclusive ... goal
    path = normalize_path(forward + backward)
    if stats is not None:
        stats.states_expanded += expanded
        stats.routes += 1
    from ..core.geometry import path_length

    return RouteResult(
        path=path,
        bends=path_bends(path),
        crossings=path_crossings(snap, path),
        length=path_length(path),
    )
