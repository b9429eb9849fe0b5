"""The pre-index router, kept as a verification and benchmark baseline.

This is the line-expansion search exactly as it ran before the
:class:`~repro.route.index.PlaneIndex` existed: a full
:class:`ReferenceSnapshot` of the plane is rebuilt per connection —
copying ``blocked | claims`` and deriving every foreign net's obstacles
from its paths with :func:`~repro.core.geometry.net_geometry`, never
from the index — and the search is an undirected lexicographic
Dijkstra.  It returns the same
optimum (bends, then crossings, then length, and the ``-s`` swap) as the
indexed A* in :mod:`repro.route.line_expansion`, just slower, which is
precisely what makes it useful:

* ``benchmarks/test_bench_route.py`` measures old path vs indexed path,
* ``RouterOptions(verify_optimum=True)`` cross-checks every connection's
  cost tuple against it,
* the property tests assert cost-tuple equality under both
  :class:`~repro.route.line_expansion.CostOrder` values,
* the Lee and Hightower baselines ask a snapshot whether a wire may
  enter or turn at a point and how many nets it crosses there.

The goal-acceptance rules (zero-length connections included) mirror the
production router so the two are cost-for-cost comparable.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from ..core.geometry import (
    HORIZONTAL_ARMS,
    VERTICAL_ARMS,
    Direction,
    Orientation,
    Point,
    net_geometry,
    normalize_path,
)
from .line_expansion import (
    _DIR_INDEX,
    _DIR_STEPS,
    _MISSING,
    _OPPOSITE,
    EXHAUSTED,
    CostOrder,
    RouteResult,
    SearchStats,
    _unkey,
)
from .plane import Plane


class ReferenceSnapshot:
    """Flat per-net view of the plane, rebuilt from scratch.

    Built once per connection in O(blocked + claims + foreign nets'
    geometry); this is the cost the incremental index amortises away.
    """

    __slots__ = (
        "x1",
        "y1",
        "x2",
        "y2",
        "hard",
        "foreign_any",
        "blocked_h",
        "blocked_v",
        "cross_h",
        "cross_v",
    )

    def __init__(self, plane: Plane, net: str, allow: frozenset[Point]) -> None:
        bounds = plane.bounds
        self.x1, self.y1 = bounds.x, bounds.y
        self.x2, self.y2 = bounds.x2, bounds.y2
        self.hard = (set(plane.blocked) | set(plane.claims)) - allow
        # Points carrying any foreign wire (no turning/terminating there).
        self.foreign_any: set[tuple[int, int]] = set()
        # Points a wire moving horizontally/vertically may not enter.
        self.blocked_h: set[tuple[int, int]] = set()
        self.blocked_v: set[tuple[int, int]] = set()
        # Crossing counts per point for horizontal/vertical passage.
        self.cross_h: dict[tuple[int, int], int] = {}
        self.cross_v: dict[tuple[int, int], int] = {}
        for other, paths in plane.paths.items():
            if other == net:
                continue
            covered, nodes = net_geometry(paths)
            self.foreign_any.update(covered)
            for point, arms in covered.items():
                if point in nodes:  # end, bend or branch
                    self.blocked_h.add(point)
                    self.blocked_v.add(point)
                    continue
                if arms & HORIZONTAL_ARMS:
                    self.blocked_h.add(point)
                    self.cross_v[point] = self.cross_v.get(point, 0) + 1
                if arms & VERTICAL_ARMS:
                    self.blocked_v.add(point)
                    self.cross_h[point] = self.cross_h.get(point, 0) + 1

    def enterable(self, point: Point, direction: Direction) -> bool:
        """Can the net's wire move into ``point`` travelling in
        ``direction``?"""
        if not (self.x1 <= point.x <= self.x2 and self.y1 <= point.y <= self.y2):
            return False
        if direction.orientation is Orientation.HORIZONTAL:
            return point not in self.hard and point not in self.blocked_h
        return point not in self.hard and point not in self.blocked_v

    def crossings(self, point: Point, direction: Direction) -> int:
        """Foreign nets crossed passing straight through ``point`` in
        ``direction``."""
        if direction.orientation is Orientation.HORIZONTAL:
            return self.cross_h.get(point, 0)
        return self.cross_v.get(point, 0)


def route_connection_reference(
    plane: Plane,
    net: str,
    start: Point,
    start_directions: Iterable[Direction],
    targets: Mapping[Point, frozenset[Direction] | None] | Iterable[Point],
    *,
    allow: frozenset[Point] = frozenset(),
    cost_order: CostOrder = CostOrder.BENDS_CROSSINGS_LENGTH,
    stats: SearchStats | None = None,
) -> RouteResult | None:
    """Drop-in, snapshot-rebuilding, undirected Dijkstra counterpart of
    :func:`repro.route.line_expansion.route_connection`."""
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    start_directions = list(start_directions)
    snap = ReferenceSnapshot(plane, net, allow)
    if start in targets:
        dirs = targets[start]
        if (
            dirs is None or any(d in dirs for d in start_directions)
        ) and start not in snap.foreign_any:
            return RouteResult(path=[start], bends=0, crossings=0, length=0)

    target_dirs: dict[tuple[int, int], frozenset[int] | None] = {}
    for p, dirs in targets.items():
        target_dirs[(p.x, p.y)] = (
            None if dirs is None else frozenset(_DIR_INDEX[d] for d in dirs)
        )

    crossings_first = cost_order is CostOrder.BENDS_CROSSINGS_LENGTH
    x1, y1, x2, y2 = snap.x1, snap.y1, snap.x2, snap.y2
    hard = snap.hard
    foreign_any = snap.foreign_any
    blocked = (snap.blocked_h, snap.blocked_v)
    crossings_at = (snap.cross_h, snap.cross_v)

    counter = 0
    heap: list = []
    best: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    parents: dict[tuple[int, int, int], tuple[int, int, int] | None] = {}
    sx, sy = start.x, start.y
    zero = (0, 0, 0)
    for d in start_directions:
        state = (sx, sy, _DIR_INDEX[d])
        best[state] = zero
        parents[state] = None
        heapq.heappush(heap, (zero, counter, state))
        counter += 1

    expanded = 0
    goal_state = None
    goal_cost = None
    heappush, heappop = heapq.heappush, heapq.heappop

    while heap:
        cost, _, state = heappop(heap)
        if cost > best.get(state, cost):
            continue  # stale entry
        expanded += 1
        px, py, di = state

        point_key = (px, py)
        arrival_ok = target_dirs.get(point_key, _MISSING)
        if arrival_ok is not _MISSING and parents[state] is not None:
            if (arrival_ok is None or di in arrival_ok) and (
                point_key not in foreign_any
            ):
                goal_state, goal_cost = state, cost
                break

        can_turn = point_key not in foreign_any
        c0, c1, length = cost
        for ndi in range(4):
            if ndi == _OPPOSITE[di]:
                continue
            turning = ndi != di
            if turning and not can_turn:
                continue
            dx, dy, moves_h = _DIR_STEPS[ndi]
            qx, qy = px + dx, py + dy
            if not (x1 <= qx <= x2 and y1 <= qy <= y2):
                continue
            q = (qx, qy)
            if q in hard or q in blocked[0 if moves_h else 1]:
                continue
            cross = crossings_at[0 if moves_h else 1].get(q, 0)
            if crossings_first:
                ncost = (c0 + turning, c1 + cross, length + 1)
            else:
                ncost = (c0 + turning, c1 + 1, length + cross)
            nstate = (qx, qy, ndi)
            old = best.get(nstate)
            if old is None or ncost < old:
                best[nstate] = ncost
                parents[nstate] = state
                heappush(heap, (ncost, counter, nstate))
                counter += 1

    if stats is not None:
        stats.states_expanded += expanded
        stats.routes += 1
        if goal_state is None:
            stats.failures += 1
            stats.certificate = EXHAUSTED
    if goal_state is None or goal_cost is None:
        return None

    path: list[Point] = []
    cursor = goal_state
    while cursor is not None:
        path.append(Point(cursor[0], cursor[1]))
        cursor = parents[cursor]
    path.reverse()
    bends, crossings, length = _unkey(goal_cost, cost_order)
    return RouteResult(
        path=normalize_path(path), bends=bends, crossings=crossings, length=length
    )
