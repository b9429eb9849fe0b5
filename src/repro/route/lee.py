"""The Lee maze router (section 5.2.2) — baseline.

Classic wave expansion minimising *wire length only*: every grid step
costs 1, bends and crossovers are free.  It guarantees a minimum-length
connection whenever one exists, but — as the paper argues when choosing
line-expansion instead — the result trades bends for length, which hurts
schematic readability.  It asks one
:class:`~repro.route.reference.ReferenceSnapshot` per connection where
a wire may enter and turn and what it crosses, the obstacle semantics
the main router's index views are tested against, so the comparison is
apples-to-apples.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from ..core.geometry import (
    Direction,
    Orientation,
    Point,
    normalize_path,
    path_bends,
    path_segments,
)
from .line_expansion import RouteResult, SearchStats
from .plane import Plane
from .reference import ReferenceSnapshot

_State = tuple[Point, Direction]


def route_lee(
    plane: Plane,
    net: str,
    start: Point,
    start_directions: Iterable[Direction],
    targets: Mapping[Point, frozenset[Direction] | None] | Iterable[Point],
    *,
    allow: frozenset[Point] = frozenset(),
    stats: SearchStats | None = None,
) -> RouteResult | None:
    """Breadth-first wave expansion from ``start`` to any target."""
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    if start in targets:
        return RouteResult(path=[start], bends=0, crossings=0, length=0)
    snap = ReferenceSnapshot(plane, net, allow)

    queue: deque[tuple[int, _State]] = deque()
    parents: dict[_State, _State | None] = {}
    for d in start_directions:
        state = (start, d)
        parents[state] = None
        queue.append((0, state))

    expanded = 0
    goal: _State | None = None
    goal_length = 0
    while queue:
        length, state = queue.popleft()
        point, direction = state
        expanded += 1

        arrival = targets.get(point, _MISSING)
        if arrival is not _MISSING and point != start:
            if (arrival is None or direction in arrival) and point not in snap.foreign_any:
                goal, goal_length = state, length
                break

        can_turn = point not in snap.foreign_any
        for nd in Direction:
            if nd is direction.opposite:
                continue
            if nd is not direction and not can_turn:
                continue
            q = point.step(nd)
            nstate = (q, nd)
            if nstate in parents:
                continue
            if not snap.enterable(q, nd):
                continue
            parents[nstate] = state
            queue.append((length + 1, nstate))

    if stats is not None:
        stats.states_expanded += expanded
        stats.routes += 1
        if goal is None:
            stats.failures += 1
    if goal is None:
        return None

    path: list[Point] = []
    cursor: _State | None = goal
    while cursor is not None:
        path.append(cursor[0])
        cursor = parents[cursor]
    path.reverse()
    norm = normalize_path(path)
    return RouteResult(
        path=norm,
        bends=path_bends(norm),
        crossings=path_crossings(snap, norm),
        length=goal_length,
    )


def path_crossings(snap: ReferenceSnapshot, path: list[Point]) -> int:
    """Foreign nets crossed along a path (vertices can carry no foreign
    wire, so counting per segment point never double-counts)."""
    total = 0
    for seg in path_segments(path):
        direction = Direction.RIGHT if seg.orientation is Orientation.HORIZONTAL else Direction.UP
        for p in seg.points():
            total += snap.crossings(p, direction)
    return total


_MISSING = object()
