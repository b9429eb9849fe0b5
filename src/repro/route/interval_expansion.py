"""The literal interval-sweep line-expansion engine (sections 5.5.2/5.6.3).

:mod:`repro.route.line_expansion` realises the router's *optimisation* as
a state-space search; this module implements the paper's *algorithm*:
active segments are swept perpendicular to themselves, wave by wave, where
the wave number is the bend count.  Sweeping a segment moves it one track
at a time; obstacles cut pieces out of it (the pieces become *end
segments* marking the parallel zone border), foreign wires crossed en
route split the ranges by crossing count, and — once a segment is fully
consumed — the perpendicular borders of the swept zone become the next
wave's active segments (EXPAND_SEGMENT / NEW_ACTIVES).

Already-reached points block further expansion ("this new kind of
obstacle … is introduced only to insure that every zone is searched just
once").  Blocking is tracked per sweep axis — a cell swept horizontally
may still be swept vertically — which is what the paper's cutting of
*active segments* (zone borders), rather than zone interiors, amounts to;
it guarantees both termination and the exact minimum-bend property.  Among the solutions of the terminal wave the engine picks
minimum crossovers then minimum length (UPDATE_SOLUTION); like the
paper's, that tie-break considers only the wave in which the first
solution appears, so bend counts always match the exhaustive engine while
the crossover/length tie-break may occasionally differ.

Obstacle queries come from the plane's incremental
:class:`~repro.route.index.PlaneIndex`: each column's straight run jumps
to the next stop with a bisect over the index's per-row/per-column
sorted stop coordinates (``NetView.run_stop``) instead of probing the
hard and blocked sets point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.geometry import Direction, Point, normalize_path
from ..obs import counters
from .index import NetView
from .line_expansion import RouteResult, SearchStats
from .plane import Plane

_DX = {Direction.LEFT: -1, Direction.RIGHT: 1, Direction.UP: 0, Direction.DOWN: 0}
_DY = {Direction.LEFT: 0, Direction.RIGHT: 0, Direction.UP: 1, Direction.DOWN: -1}


@dataclass
class _Active:
    """An active segment: points at perpendicular offset 0..n from the
    parent line, to be expanded in ``direction``.

    The segment spans ``lo..hi`` on the varying axis at fixed ``index``
    on the other axis; ``crossings`` is the crossover count of the paths
    reaching it; ``parent`` and ``parent_index`` let trace-back rebuild
    the actual path (RECONSTRUCT_PATH).
    """

    direction: Direction
    index: int  # the fixed coordinate of the segment's line
    lo: int
    hi: int
    crossings: int
    bends: int
    parent: "_Active | None"

    def point(self, v: int) -> Point:
        if _DY[self.direction]:  # sweeping vertically: segment is horizontal
            return Point(v, self.index)
        return Point(self.index, v)


def route_connection_intervals(
    plane: Plane,
    net: str,
    start: Point,
    start_directions: Iterable[Direction],
    targets: Mapping[Point, frozenset[Direction] | None] | Iterable[Point],
    *,
    allow: frozenset[Point] = frozenset(),
    stats: SearchStats | None = None,
) -> RouteResult | None:
    """Drop-in interval-sweep counterpart of
    :func:`repro.route.line_expansion.route_connection` (crossing-first
    tie-break only, like the paper's main configuration)."""
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    start_directions = list(start_directions)
    view = plane.index.view(net, allow)
    if start in targets:
        dirs = targets[start]
        if (
            dirs is None or any(d in dirs for d in start_directions)
        ) and not view.foreign_at(start):
            return RouteResult(path=[start], bends=0, crossings=0, length=0)

    target_dirs = {(p.x, p.y): dirs for p, dirs in targets.items()}

    # (axis, x, y): a cell may be swept once per axis (True = vertical).
    visited: set[tuple[bool, int, int]] = set()
    wave: list[_Active] = [
        _Active(d, _line_index(start, d), _line_coord(start, d), _line_coord(start, d), 0, 0, None)
        for d in start_directions
    ]

    expanded = 0
    solutions: list[tuple[int, int, list[Point]]] = []  # (crossings, length, path)

    while wave and not solutions:
        next_wave: list[_Active] = []
        for active in wave:
            expanded += 1
            _expand_segment(
                view,
                active,
                target_dirs,
                visited,
                next_wave,
                solutions,
            )
        wave = next_wave

    if stats is not None:
        stats.states_expanded += expanded
        stats.routes += 1
        if not solutions:
            stats.failures += 1
    counters.inc("route.connections")
    counters.inc("route.expansions", expanded)
    counters.observe("route.expansions_per_connection", expanded)
    if not solutions:
        counters.inc("route.connection_failures")
        return None
    crossings, length, path = min(solutions, key=lambda s: (s[0], s[1]))
    norm = normalize_path(path)
    return RouteResult(
        path=norm,
        bends=max(0, len(norm) - 2),
        crossings=crossings,
        length=length,
    )


def _line_index(p: Point, d: Direction) -> int:
    return p.y if _DY[d] else p.x


def _line_coord(p: Point, d: Direction) -> int:
    return p.x if _DY[d] else p.y


def _expand_segment(
    view: NetView,
    active: _Active,
    target_dirs,
    visited: set[tuple[bool, int, int]],
    next_wave: list[_Active],
    solutions: list,
) -> None:
    """EXPAND_SEGMENT: sweep ``active`` in its direction until every
    subrange is consumed, recording the zone, solutions and new actives.

    Columns are independent, so each is swept to completion on its own:
    a bisect against the index's sorted stop coordinates bounds every
    straight run, and only the per-search ``visited`` marks (and crossing
    counts) are checked point by point inside the run.
    """
    d = active.direction
    vertical_sweep = _DY[d] != 0
    step = _DY[d] if vertical_sweep else _DX[d]
    cross_tot = view.cross_v if vertical_sweep else view.cross_h
    own_cross = view.own_cross_v if vertical_sweep else view.own_cross_h
    occ = view.occ
    self_clear = view.self_clear
    if vertical_sweep:
        limit_lo, limit_hi = view.x1, view.x2
        index_lo, index_hi = view.y1, view.y2
    else:
        limit_lo, limit_hi = view.y1, view.y2
        index_lo, index_hi = view.x1, view.x2

    reached: dict[int, list[tuple[int, int]]] = {}  # v -> [(index, crossings)]
    run_stop = view.run_stop
    for v in range(max(active.lo, limit_lo), min(active.hi, limit_hi) + 1):
        crossings = active.crossings
        index = active.index
        stop = run_stop(vertical_sweep, v, index, step)
        if step > 0:
            end = index_hi if stop is None else min(stop - 1, index_hi)
        else:
            end = index_lo if stop is None else max(stop + 1, index_lo)
        cells = None
        while index != end:
            index += step
            q = (v, index) if vertical_sweep else (index, v)
            mark = (vertical_sweep, q[0], q[1])
            if mark in visited:
                break  # this column's sweep ends (an end segment)
            visited.add(mark)
            cross = cross_tot.get(q, 0)
            if cross:
                cross -= own_cross.get(q, 0)
            crossings += cross
            if cells is None:
                cells = reached.setdefault(v, [])
            cells.append((index, crossings))
            arrival = target_dirs.get(q, _MISSING)
            if arrival is not _MISSING:
                if (arrival is None or d in arrival) and (
                    q not in occ or q in self_clear
                ):
                    solutions.append(
                        _make_solution(active, v, index, crossings, vertical_sweep)
                    )

    # NEW_ACTIVES: along every swept column, the reached cells where a
    # bend is legal (no foreign wire through the point) become the next
    # wave's perpendicular active segments.  Cells are grouped into
    # maximal runs that are contiguous, share a crossing count (the
    # paper's lc/rc splitting) and are all turn-legal.
    if not reached:
        return
    perp_dirs = (
        (Direction.LEFT, Direction.RIGHT)
        if vertical_sweep
        else (Direction.DOWN, Direction.UP)
    )
    for v, cells in reached.items():
        cells.sort()
        groups: list[list[tuple[int, int]]] = []
        for idx, cr in cells:
            q = (v, idx) if vertical_sweep else (idx, v)
            if q in occ and q not in self_clear:
                groups.append([])  # crossing point: a bend may not sit here
                continue
            if (
                groups
                and groups[-1]
                and idx == groups[-1][-1][0] + 1  # cells are sorted ascending
                and cr == groups[-1][-1][1]
            ):
                groups[-1].append((idx, cr))
            else:
                groups.append([(idx, cr)])
        for group in groups:
            if not group:
                continue
            indices = [g[0] for g in group]
            lo, hi = min(indices), max(indices)
            crossings = group[0][1]
            for nd in perp_dirs:
                next_wave.append(
                    _Active(
                        direction=nd,
                        index=v,
                        lo=lo,
                        hi=hi,
                        crossings=crossings,
                        bends=active.bends + 1,
                        parent=_Anchor(active, v),
                    )
                )


class _Anchor:
    """Trace-back anchor: the parent active plus the column on it the
    child branched from (the paper's (ip, xp, yp, dp) originator)."""

    __slots__ = ("active", "coord")

    def __init__(self, active: _Active, coord: int) -> None:
        self.active = active
        self.coord = coord


def _make_solution(
    active: _Active, v: int, index: int, crossings: int, vertical_sweep: bool
) -> tuple[int, int, list[Point]]:
    """RECONSTRUCT_PATH: from the solution point back through the anchors
    to the start terminal."""
    path: list[Point] = []
    if vertical_sweep:
        path.append(Point(v, index))
    else:
        path.append(Point(index, v))
    cursor: _Active | None = active
    coord = v
    while cursor is not None:
        # The path meets the cursor's line at (coord on the segment axis,
        # cursor.index on the sweep axis).
        if _DY[cursor.direction]:
            path.append(Point(coord, cursor.index))
        else:
            path.append(Point(cursor.index, coord))
        anchor = cursor.parent
        if anchor is None:
            cursor = None
        else:
            coord_next = anchor.coord
            cursor = anchor.active
            # We travelled along cursor's line to reach the branch column.
            coord = coord_next
    path.reverse()
    length = sum(a.manhattan(b) for a, b in zip(path, path[1:]))
    return (crossings, length, path)


_MISSING = object()
