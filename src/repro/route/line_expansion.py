"""The line-expansion router (sections 5.5 and 5.6).

The paper's router expands wavefronts of line segments; the wave number is
the number of bends in the paths reaching the front, and among solutions
with minimum bends it picks minimum crossovers, then minimum wire length
(the ``-s`` option swaps the last two criteria).

We realise exactly that optimisation as a lexicographic shortest-path
search over states ``(point, travel direction)`` on the routing plane:

* continuing straight costs length,
* changing direction costs a bend (wave number + 1) and is only legal at
  points free of foreign wires (a bend on a foreign wire would overlap),
* passing straight across a foreign wire costs a crossover,
* module borders, claimpoints, plane borders and foreign bend/end/branch
  points block (section 5.5.2: "the only obstacles are modules and bends
  in nets").

The search is an *admissible lexicographic A\\**: each state is ordered by
its cost-so-far plus a per-state lower bound of (minimum remaining bends —
0/1/2/3 from the geometric relation of ``(point, direction)`` to the
nearest target —, minimum remaining crossings, and remaining Manhattan
length to the targets' bounding box).  The crossing bound is
*crossover-aware*: when zero or one bend suffices, every minimum-bend
completion must sweep a straight run to (or towards) a nearest target, and
the index's per-row/column crossing prefix sums price that run exactly
(minus the net's own contributions) in O(1).  The bound only has to
hold among minimum-bend completions — paths with more bends already lose
on the first lexicographic component — and range sums over nested
intervals only grow, so truncating at the *nearest* target keeps it a
lower bound.  No bound ever overestimates, so the first target state
popped is still the paper's exact optimum (bends, then crossings, then
length, and the ``-s`` swap) while states pointing away from every target
— or staring at a wall of foreign wires — are pruned.
Like the paper's algorithm (section 5.5.4) the search stays exhaustive: a
connection is found whenever one exists.

A connection that is still searching after ``_ESCALATE_AFTER`` pops
escalates to :func:`cost_to_go`: the exact lexicographic cost on the
problem with only the U-turn ban lifted, computed as the paper's segment
wavefront with costs attached, and the search restarts under that bound.
The field is exact on the start's *corridor* — the intervals that some
minimum-bend relaxed path from the start passes — and elsewhere carries
only a bend count that already exceeds the relaxed optimum, so states
off the corridor are never popped.  When start-direction or arrival
constraints make the real optimum bendier than the relaxed one, the
field widens once to every interval a target reaches and the search
restarts again.  Among states of equal ``f`` the one with the longer
path so far pops first, so plateaus of equal-cost states are walked
depth-first.

Obstacle queries come from the plane's incremental
:class:`~repro.route.index.PlaneIndex` — a per-connection
:class:`~repro.route.index.NetView` overlay built in O(own net) — instead
of the O(plane) snapshot rebuild the pre-index router paid per connection
(that path survives as :mod:`repro.route.reference` for benchmarking and
cross-checking).
"""

from __future__ import annotations

import enum
import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.geometry import Direction, Point, normalize_path
from ..obs import counters
from .index import NetView
from .plane import Plane


class CostOrder(enum.Enum):
    """Tie-break order among minimum-bend paths (Appendix F, option -s)."""

    BENDS_CROSSINGS_LENGTH = "crossings-first"
    BENDS_LENGTH_CROSSINGS = "length-first"

    def key(self, bends: int, crossings: int, length: int) -> tuple[int, int, int]:
        if self is CostOrder.BENDS_CROSSINGS_LENGTH:
            return (bends, crossings, length)
        return (bends, length, crossings)


@dataclass(frozen=True)
class RouteResult:
    """A found connection and its cost."""

    path: list[Point]
    bends: int
    crossings: int
    length: int


#: Per-connection telemetry rows kept on one :class:`SearchStats` —
#: enough for every net of the biggest bench workloads; beyond it the
#: noisiest rows are already in, so further ones are dropped.
MAX_CONNECTION_ROWS = 4096


@dataclass
class SearchStats:
    """Cumulative search effort (for the complexity experiments)."""

    states_expanded: int = 0
    routes: int = 0
    failures: int = 0
    #: Heap entries skipped as stale/superseded (A* pruning bookkeeping).
    pruned: int = 0
    #: Connections that escalated to the exact cost-to-go bound.
    escalations: int = 0
    #: Per-connection introspection rows ("why was this net slow") —
    #: pops vs the initial bound estimate, escalation, search area,
    #: final cost.  Bounded by :data:`MAX_CONNECTION_ROWS`.
    connections: list[dict] = field(default_factory=list)

    def record_connection(self, row: dict) -> None:
        if len(self.connections) < MAX_CONNECTION_ROWS:
            self.connections.append(row)


#: (dx, dy, moves_horizontally) per direction, and the opposite's index.
_DIR_ORDER = [Direction.LEFT, Direction.RIGHT, Direction.UP, Direction.DOWN]
_DIR_STEPS = [(d.dx, d.dy, d.dy == 0) for d in _DIR_ORDER]
_DIR_INDEX = {d: i for i, d in enumerate(_DIR_ORDER)}
_OPPOSITE = [1, 0, 3, 2]

#: Pops a connection may spend under the geometric bound before the
#: search escalates to the exact cost-to-go field.
_ESCALATE_AFTER = 256

#: Wave of an interval no target reaches (above every real wave).
_UNREACHED = 1 << 30

#: Largest magnitude the sweeps may reach in int64 arithmetic; beyond
#: it they run on Python integers.
_INT64_LIMIT = 1 << 63


def cost_to_go(
    view: NetView,
    target_dirs: Mapping[tuple[int, int], frozenset[int] | None],
    cost_order: CostOrder,
    start: tuple[int, int] | None = None,
    start_dirs: Iterable[int] = range(4),
) -> tuple[np.ndarray, int, int | None]:
    """Lexicographic cost-to-go of the view's net towards the targets,
    relaxed only by ignoring U-turn bans (the admissible direction):
    exact wherever a search from ``start`` can pop, a lower bound
    elsewhere.

    ``target_dirs`` maps target points to their accepted arrival
    direction indices (``None`` for any), as the search's goal test reads
    them; ``start_dirs`` are the start's direction indices.  Returns
    ``(field, shift, budget)``: ``field[0][y - y1][x - x1]`` is the
    cost-to-go of a state at ``(x, y)`` travelling horizontally,
    ``field[1]`` of one travelling vertically, packed into one int64 as
    ``(bends << 2 * shift) + (first << shift) + second``, where
    ``(first, second)`` is ``(crossings, length)`` — or
    ``(length, crossings)`` under the ``-s`` order — so packed values
    compare like :meth:`CostOrder.key` tuples.  ``-1`` marks states on a
    stop of their own axis (never entered; the search bounds starts there
    itself).

    This is the paper's line expansion run backwards from the targets,
    with costs attached to the segment wavefront.  Wave ``k`` holds every
    free interval (maximal stop-free run of a row or column) some target
    reaches with ``k`` bends: a breadth-first search over the interval
    graph, whose edges are the bendable points joining a row interval to
    a column interval.  Then, wave by wave, every point of a wave-``k``
    interval takes the cheapest seed of its interval plus the straight
    run to it.  Wave-0 seeds are the accepted targets (value 0); wave-``k``
    seeds are the interval's bendable points whose other-axis state is on
    wave ``k - 1``, with that state's value.  A bendable point is free on
    both axes or on neither, so these seeds also cover a state bending
    where it stands.

    Without a ``start`` — or with one outside the plane or on a stop of
    an axis it may leave on, which has no interval to start from — every
    interval a target reaches is swept, the rest are ``-1`` and
    ``budget`` is ``None``.  With one, only the *corridor* is swept.  The
    budget ``B`` is the least wave of the start's intervals on its
    allowed axes, its exact relaxed bend count; ``u`` is the forward bend
    wave from those intervals, and the corridor holds every interval
    with ``u + wave <= B``: every state a minimum-bend relaxed path from
    the start passes.  The seeds of a wave-``k`` corridor interval lie on
    wave-``k - 1`` intervals one forward wave away at most, so inside the
    corridor too, and every corridor state gets the exact value above.
    Any other state gets ``(min(wave, B + 1), 0, 0)``: its bends are
    exact up to the budget, and a search that has spent ``g`` bends on
    reaching it has ``g >= u`` and so ``g + wave > B``.  When no start
    interval is reached at all, every state is ``-1``.
    """
    stop_h, stop_v, bendable, cross_h, cross_v = view.grids()
    ny, nx = stop_h.shape
    n = ny * nx
    # Both axes as flat arrays in line order: rows for horizontal travel,
    # columns for vertical.  ``lines[a]`` is axis ``a``'s (lines, points
    # per line); :func:`_transposed` maps positions between the orders.
    lines = ((ny, nx), (nx, ny))
    # Both cost components of any candidate — an optimal completion,
    # which enters each state at most once, plus one straight run — fit
    # in ``shift`` bits, so packed sums never carry between them.
    cap = max(2 * n + max(nx, ny), 2 * int(cross_h.sum() + cross_v.sum()))
    shift = cap.bit_length()
    unit = 1 << shift
    crossings_first = cost_order is CostOrder.BENDS_CROSSINGS_LENGTH
    lab, n_lab, runs, segments = [], [], [], []
    for stop in (stop_h, stop_v.T):
        stop = np.ascontiguousarray(stop)
        # A free point starts an interval when the point before it on its
        # line is a stop or the plane border, and ends one when the point
        # after it is.  Intervals are numbered in line order, and the
        # order alternates runs of stops and intervals: ``label`` and
        # ``size`` list those runs, stops under the sentinel label
        # ``count``, whose wave stays unreached.
        first = ~stop
        first[:, 1:] &= stop[:, :-1]
        last = ~stop
        last[:, :-1] &= stop[:, 1:]
        begin = np.flatnonzero(first)
        end = np.flatnonzero(last) + 1
        count = begin.size
        label = np.full(2 * count + 1, count, dtype=np.int32)
        label[1::2] = np.arange(count)
        size = np.empty(2 * count + 1, dtype=np.int64)
        size[0] = begin[0] if count else n
        size[1::2] = end - begin
        size[2::2] = np.append(begin[1:], n) - end
        lab.append(np.repeat(label, size))
        n_lab.append(count)
        runs.append((begin, end - begin))
        segments.append((label, size))
    # The interval graph: a node per interval of either axis, axis 1's
    # numbered after axis 0's and each axis's sentinel, and an edge per
    # bendable point, joining its row interval to its column interval.
    # A line order meets the points in label order, so a node's edges
    # are one slice, ``adj[ptr[i]:ptr[i + 1]]``.
    corner = ~stop_h & ~stop_v & bendable
    corner_v = np.ascontiguousarray(corner.T)
    first_id = (0, n_lab[0] + 1)
    grid_lab = (lab[0].reshape(lines[0]), lab[1].reshape(lines[1]))
    adj = np.concatenate(
        (grid_lab[1].T[corner] + first_id[1], grid_lab[0].T[corner_v])
    )
    degree = [
        np.add.reduceat(grid.ravel(), run[0], dtype=np.int64)
        for grid, run in ((corner, runs[0]), (corner_v, runs[1]))
    ]
    degree = np.concatenate((degree[0], [0], degree[1], [0]))  # sentinels: none
    ptr = np.concatenate(([0], np.cumsum(degree)))
    wave = np.full(degree.size, _UNREACHED, dtype=np.int64)
    waves = (wave[: first_id[1]], wave[first_id[1]:])
    # Seeds mirror the goal-acceptance rule, per arrival axis, so every
    # acceptable goal state reads cost 0.
    targets: tuple[list[int], list[int]] = ([], [])
    x1, y1 = view.x1, view.y1
    for (tx, ty), dirs in target_dirs.items():
        i, j = ty - y1, tx - x1
        if not (0 <= i < ny and 0 <= j < nx and bendable[i, j]):
            continue
        for tdi in range(4) if dirs is None else dirs:
            axis = tdi >> 1
            f = i * nx + j if axis == 0 else j * ny + i
            if lab[axis][f] < n_lab[axis]:
                waves[axis][lab[axis][f]] = 0
                targets[axis].append(f)
    # The start's interval on each axis it may leave on, if it has one.
    entry = None
    if start is not None:
        i, j = start[1] - y1, start[0] - x1
        if 0 <= i < ny and 0 <= j < nx:
            axes = {d >> 1 for d in start_dirs}
            at = [int(lab[a][i * nx + j if a == 0 else j * ny + i]) for a in axes]
            if axes and all(s < n_lab[a] for a, s in zip(axes, at)):
                entry = [first_id[a] + s for a, s in zip(axes, at)]
    # The bend waves, frontier by frontier; with an entry they stop at
    # the first wave holding one of its intervals.
    front = np.flatnonzero(wave == 0)
    level = 0
    budget = None
    while True:
        if entry is not None and wave[entry].min() <= level:
            budget = level
            break
        front = _frontier(_neighbours(front, ptr, adj), wave == _UNREACHED)
        if not front.size:
            break
        level += 1
        wave[front] = level
    if entry is None:
        member = wave < _UNREACHED
    elif budget is None:
        return np.full((2, ny, nx), -1, dtype=np.int64), shift, None
    else:
        # The corridor, as forward waves from the entry that only enter
        # intervals with room left for their backward wave: every
        # interval on a shortest forward path to a corridor interval is
        # in the corridor itself.
        member = np.zeros(wave.size, dtype=bool)
        front = np.array([s for s in entry if wave[s] == budget])
        member[front] = True
        for room in range(budget - 1, -1, -1):
            front = _frontier(_neighbours(front, ptr, adj), ~member & (wave <= room))
            member[front] = True
        level = budget
    members = (member[: first_id[1]], member[first_id[1]:])
    # Lay each axis's swept intervals out by wave, in line order within a
    # wave, so each wave's sweep reads slices.  A swept point ``f`` of
    # axis ``a`` sits at ``to_layout[a][lab[a][f]] + f`` in the layout.
    points, bounds, to_layout, sweeps = [], [], [], []
    for a in (0, 1):
        ids = np.flatnonzero(members[a])
        ids = ids[np.argsort(waves[a][ids], kind="stable")]
        begin, size = runs[a][0][ids], runs[a][1][ids]
        at = _ranges(begin, size)
        other = _ranges(_transposed(begin, lines[a]), size, lines[a][0])
        ends = np.concatenate(([0], np.cumsum(size)))
        points.append(at)
        wave_ends = np.searchsorted(waves[a][ids], np.arange(level + 2))
        bounds.append(ends[wave_ends].tolist())
        to = np.empty(n_lab[a] + 1, dtype=np.int64)
        to[ids] = ends[:-1] - begin
        to_layout.append(to)
        at_h = at if a == 0 else other
        # Which wave's other-axis state seeds each point: a bendable
        # point's, or -1 (seeding wave 0) at an accepted target.
        seeded_by = np.where(
            corner.ravel()[at_h], waves[1 - a][lab[1 - a][other]], -2
        )
        swept = [to[lab[a][f]] + f for f in targets[a] if members[a][lab[a][f]]]
        seeded_by[swept] = -1
        # Packed cost of entering each point, summed over the layout up
        # to and excluding / including the point: within an interval a
        # straight run from ``p`` to ``b`` costs ``excl[p] - excl[b]``
        # leftwards and ``incl[b] - incl[p]`` rightwards.
        cross = (cross_h if a == 0 else cross_v).ravel()[at_h]
        step = cross * unit + 1 if crossings_first else cross + unit
        incl = np.cumsum(step)
        # Each interval's place in the layout, to offset its entries by.
        place = np.repeat(np.arange(ids.size), size)
        sweeps.append([seeded_by, other, place, incl - step, incl])
    # One offset span per call, wider than every entry of every sweep, so
    # a running minimum never crosses into the next interval.  Seeds are
    # optimal completions, whose components are at most ``cap``.
    reach = max((int(sw[4][-1]) for sw in sweeps if sw[4].size), default=0)
    none = (cap << shift) + cap + 2 * reach + 1  # above every candidate
    span = none + reach + 1
    wide = max(n_lab) * span + none >= _INT64_LIMIT
    for sweep in sweeps:
        sweep[2] = sweep[2] * span
        if wide:
            sweep[2:] = (x.astype(object) for x in sweep[2:])
    value = [np.zeros(at.size, dtype=np.int64) for at in points]
    for k in range(level + 1):
        for a in (0, 1):
            lo, hi = bounds[a][k], bounds[a][k + 1]
            if lo == hi:
                continue
            seeded_by, other, offset, before, upto = (x[lo:hi] for x in sweeps[a])
            seeds = np.flatnonzero(seeded_by == k - 1)
            seed_value = 0
            if k:
                at = other[seeds]
                seed_value = value[1 - a][at + to_layout[1 - a][lab[1 - a][at]]]
            value[a][lo:hi] = _sweep(
                seeds,
                seed_value,
                offset,
                before,
                upto,
                none,
            )
    # Every state of an unswept interval carries its wave, capped at one
    # past the budget; stops, and without a budget every unreached
    # interval, carry -1.
    field = np.empty((2, ny, nx), dtype=np.int64)
    for a in (0, 1):
        base = waves[a].copy()
        if budget is None:
            missing = base == _UNREACHED
            base[missing] = 0
        else:
            np.minimum(base, budget + 1, out=base)
            missing = -1
        base <<= 2 * shift
        base[missing] = -1
        line = np.repeat(base[segments[a][0]], segments[a][1])
        line[points[a]] += value[a]
        field[a] = line.reshape(lines[a]) if a == 0 else line.reshape(lines[a]).T
    return field, shift, budget


def _transposed(f: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Positions of C-order points ``f`` of a ``shape`` array in its
    transpose's C order."""
    q, r = np.divmod(f, shape[1])
    return r * shape[0] + q


def _ranges(begin: np.ndarray, size: np.ndarray, stride: int = 1) -> np.ndarray:
    """The runs ``begin[i] + stride * t`` for ``t < size[i]``,
    concatenated."""
    total = np.cumsum(size)
    steps = np.arange(int(total[-1]) if total.size else 0)
    if stride != 1:
        steps *= stride
    return np.repeat(begin - (total - size) * stride, size) + steps


def _neighbours(front: np.ndarray, ptr: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Every adjacency entry of the frontier's intervals."""
    lo = ptr[front]
    return adj[_ranges(lo, ptr[front + 1] - lo)]


def _frontier(ids: np.ndarray, admit: np.ndarray) -> np.ndarray:
    """The distinct ``ids`` the interval mask ``admit`` allows, in
    order."""
    mark = np.zeros(admit.size, dtype=bool)
    mark[ids] = True
    mark &= admit
    return np.flatnonzero(mark)


def _sweep(
    seeds: np.ndarray,
    seed_value: np.ndarray | int,
    offset: np.ndarray,
    excl: np.ndarray,
    incl: np.ndarray,
    none: int,
) -> np.ndarray:
    """Min over the seeds ``b`` of each point's interval of
    ``seed_value`` at ``b`` plus the packed cost of the straight run to
    ``b``, for points given as whole intervals in line order: running
    left from ``p`` to ``b`` costs ``excl[p] - excl[b]``, running right
    costs ``incl[b] - incl[p]``.  ``seeds`` are the seed positions.

    A segmented prefix-min and suffix-min do it.  ``offset`` (ascending
    per interval, a span apart) keeps each running minimum inside its
    interval; ``none`` stands in for a missing seed and stays above every
    real candidate, and every interval holds a seed."""
    left = none - offset
    left[seeds] = seed_value - excl[seeds] - offset[seeds]
    np.minimum.accumulate(left, out=left)
    left += offset
    left += excl
    right = none + offset
    right[seeds] = seed_value + incl[seeds] + offset[seeds]
    right = np.minimum.accumulate(right[::-1])[::-1]
    right -= offset
    right -= incl
    return np.minimum(left, right)


def route_connection(
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
    """Find the best path of ``net`` from ``start`` to any target point.

    ``start_directions`` are the legal directions for the first wire
    segment (perpendicular to and away from the module side for subsystem
    terminals, all four for system terminals, section 5.6.3).

    ``targets`` maps target points to the set of arrival directions that
    are acceptable there (``None`` for any); a bare iterable of points
    accepts any arrival direction.

    ``allow`` exempts points from the module/terminal/claim blocks (the
    net's own terminals).

    Returns ``None`` when no connection exists — and only then.  Raises
    ``ValueError`` for a ``start`` outside ``plane.bounds``, which has no
    cell in the plane index.
    """
    index = plane.index
    start_cell = index.cell(start)
    if start_cell is None:
        raise ValueError(f"start {start} lies outside the plane bounds {plane.bounds}")
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    start_directions = list(start_directions)
    view = index.view(net, allow)
    if start in targets:
        # Zero-length connection: legal only under the same acceptance
        # rule as the main loop — the target must carry no foreign wire
        # and its arrival constraint must admit a start direction.
        dirs = targets[start]
        if (
            dirs is None or any(d in dirs for d in start_directions)
        ) and not view.foreign_at(start):
            return RouteResult(path=[start], bends=0, crossings=0, length=0)

    # Arrival constraints, by point for the cost-to-go field and by cell
    # for the goal test (a target outside the bounds is never reached),
    # plus the target geometry the heuristic needs: bounding box and
    # sorted per-row/per-column target coordinates.
    target_dirs: dict[tuple[int, int], frozenset[int] | None] = {}
    goal_dirs: dict[int, frozenset[int] | None] = {}
    t_in_row: dict[int, list[int]] = {}
    t_in_col: dict[int, list[int]] = {}
    tx1 = ty1 = 1 << 60
    tx2 = ty2 = -(1 << 60)
    for p, dirs in targets.items():
        tx, ty = p.x, p.y
        accepted = None if dirs is None else frozenset(_DIR_INDEX[d] for d in dirs)
        target_dirs[(tx, ty)] = accepted
        cell = index.cell(p)
        if cell is not None:
            goal_dirs[cell] = accepted
        t_in_row.setdefault(ty, []).append(tx)
        t_in_col.setdefault(tx, []).append(ty)
        if tx < tx1:
            tx1 = tx
        if tx > tx2:
            tx2 = tx
        if ty < ty1:
            ty1 = ty
        if ty > ty2:
            ty2 = ty
    for lst in t_in_row.values():
        lst.sort()
    for lst in t_in_col.values():
        lst.sort()
    t_rows_sorted = sorted(t_in_row)  # rows containing a target
    t_cols_sorted = sorted(t_in_col)  # columns containing a target

    crossings_first = cost_order is CostOrder.BENDS_CROSSINGS_LENGTH
    # Every probe reads the index's buffers and the view's exceptions by
    # cell, ``(y - y1) * nx + x - x1``; per direction: the step, the cell
    # offset, and the buffers and exceptions of the axis it moves along.
    x1, y1, x2, y2, nx = view.x1, view.y1, view.x2, view.y2, view.nx
    hard, occ = index.hard, index.occ
    allow_cells, self_clear = view.allow_cells, view.self_clear
    axes = (
        (index.h_block, view.unblock_h, index.cross_h, view.own_cross_h),
        (index.v_block, view.unblock_v, index.cross_v, view.own_cross_v),
    )
    moves = [
        (dx, dy, dx + dy * nx, *axes[0 if moves_h else 1])
        for dx, dy, moves_h in _DIR_STEPS
    ]

    # -- crossover-aware bound plumbing ---------------------------------
    # The index prices a straight run's crossings over all nets inside
    # the bounds; the net's own contributions there, one to a few per
    # line, are summed and subtracted.
    range_cross_h = index.range_cross_h
    range_cross_v = index.range_cross_v
    own_h_rows: dict[int, list[tuple[int, int]]] = {}
    for c, n in view.own_cross_h.items():
        i, j = divmod(c, nx)
        own_h_rows.setdefault(y1 + i, []).append((x1 + j, n))
    own_v_cols: dict[int, list[tuple[int, int]]] = {}
    for c, n in view.own_cross_v.items():
        i, j = divmod(c, nx)
        own_v_cols.setdefault(x1 + j, []).append((y1 + i, n))

    def _hrange(y: int, a: int, b: int) -> int:
        """Foreign crossings a horizontal run entering ``x in [a..b]``
        on row ``y`` must pay."""
        total = range_cross_h(y, a, b)
        if total and y in own_h_rows:
            total -= sum(c for x, c in own_h_rows[y] if a <= x <= b)
        return total

    def _vrange(x: int, a: int, b: int) -> int:
        total = range_cross_v(x, a, b)
        if total and x in own_v_cols:
            total -= sum(c for y, c in own_v_cols[x] if a <= y <= b)
        return total

    # Per-line *stop* coordinates for this net, bisected.  A straight
    # run cannot pass its first stop, which upgrades the bend bound
    # behind walls.  A line holding none of the view's exemptions
    # (``allow``, own-wire unblocks) stops exactly at the index's
    # obstacles, so it reads the index's shared sorted list (read-only
    # here); the few exempt lines are filtered once per connection.
    exempt_rows = {y1 + c // nx for c in allow_cells | view.unblock_h}
    exempt_cols = {x1 + c % nx for c in allow_cells | view.unblock_v}
    stop_rows: dict[int, list[int]] = {}
    stop_cols: dict[int, list[int]] = {}
    sorted_row, sorted_col = index.sorted_row, index.sorted_col
    stops_at = view.stops_at

    def _stops_row(y: int) -> list[int]:
        lst = stop_rows.get(y)
        if lst is None:
            lst = sorted_row(y)
            if y in exempt_rows:
                base = (y - y1) * nx - x1
                lst = [x for x in lst if stops_at(base + x, False)]
            stop_rows[y] = lst
        return lst

    def _stops_col(x: int) -> list[int]:
        lst = stop_cols.get(x)
        if lst is None:
            lst = sorted_col(x)
            if x in exempt_cols:
                lst = [y for y in lst if stops_at((y - y1) * nx + x - x1, True)]
            stop_cols[x] = lst
        return lst

    def _hc1_horiz(qx: int, qy: int, sgn: int, lim: int | None) -> int | None:
        """Crossing bound over the exactly-one-bend completions when
        travel is horizontal — or ``None`` when no such completion can
        exist.  Every 1-bend completion either bends *here* (family A —
        a vertical run in this column to a target row, needs a bendable
        point and a reachable target) or sweeps on and bends ahead
        (family B — a horizontal run at least to the nearest reachable
        target column ahead, bounded by the first stop ``lim``)."""
        best = None
        cell = (qy - y1) * nx + qx - x1
        if not occ[cell] or cell in self_clear:
            col = t_in_col.get(qx)
            if col:
                scol = _stops_col(qx)
                i = bisect_left(col, qy + 1)
                if i < len(col):
                    ty = col[i]
                    j = bisect_right(scol, qy)
                    if j >= len(scol) or ty < scol[j]:
                        best = _vrange(qx, qy + 1, ty)
                i = bisect_right(col, qy - 1) - 1
                if i >= 0:
                    ty = col[i]
                    j = bisect_left(scol, qy) - 1
                    if j < 0 or ty > scol[j]:
                        c = _vrange(qx, ty, qy - 1)
                        if best is None or c < best:
                            best = c
        if sgn > 0:
            i = bisect_left(t_cols_sorted, qx + 1)
            if i < len(t_cols_sorted):
                c_near = t_cols_sorted[i]
                if lim is None or c_near < lim:
                    c = _hrange(qy, qx + 1, c_near)
                    if best is None or c < best:
                        best = c
        else:
            i = bisect_right(t_cols_sorted, qx - 1) - 1
            if i >= 0:
                c_near = t_cols_sorted[i]
                if lim is None or c_near > lim:
                    c = _hrange(qy, c_near, qx - 1)
                    if best is None or c < best:
                        best = c
        return best

    def _hc1_vert(qx: int, qy: int, sgn: int, lim: int | None) -> int | None:
        best = None
        cell = (qy - y1) * nx + qx - x1
        if not occ[cell] or cell in self_clear:
            row = t_in_row.get(qy)
            if row:
                srow = _stops_row(qy)
                i = bisect_left(row, qx + 1)
                if i < len(row):
                    tx = row[i]
                    j = bisect_right(srow, qx)
                    if j >= len(srow) or tx < srow[j]:
                        best = _hrange(qy, qx + 1, tx)
                i = bisect_right(row, qx - 1) - 1
                if i >= 0:
                    tx = row[i]
                    j = bisect_left(srow, qx) - 1
                    if j < 0 or tx > srow[j]:
                        c = _hrange(qy, tx, qx - 1)
                        if best is None or c < best:
                            best = c
        if sgn > 0:
            i = bisect_left(t_rows_sorted, qy + 1)
            if i < len(t_rows_sorted):
                r_near = t_rows_sorted[i]
                if lim is None or r_near < lim:
                    c = _vrange(qx, qy + 1, r_near)
                    if best is None or c < best:
                        best = c
        else:
            i = bisect_right(t_rows_sorted, qy - 1) - 1
            if i >= 0:
                r_near = t_rows_sorted[i]
                if lim is None or r_near > lim:
                    c = _vrange(qx, r_near, qy - 1)
                    if best is None or c < best:
                        best = c
        return best

    def heur(qx: int, qy: int, di: int) -> tuple[int, int, int]:
        """Admissible (remaining bends, crossings, length) lower bound
        for state ``((qx, qy), direction di)`` against the whole target
        set.  The crossing component only has to hold among completions
        with exactly the minimum bends — bendier completions already
        lose on the first lexicographic component."""
        # Manhattan distance to the targets' bounding box.
        hl = 0
        if qx < tx1:
            hl = tx1 - qx
        elif qx > tx2:
            hl = qx - tx2
        if qy < ty1:
            hl += ty1 - qy
        elif qy > ty2:
            hl += qy - ty2
        # Minimum bends from the geometric relation to the nearest
        # *reachable* target: 0 when one lies straight ahead of the
        # first stop, 1 when a one-bend family A/B completion survives
        # the stop tests, else 2 (3 when every target is strictly behind
        # on the travel line itself).
        if di == 0:  # LEFT
            srow = _stops_row(qy)
            j = bisect_left(srow, qx) - 1
            lim = srow[j] if j >= 0 else None
            row = t_in_row.get(qy)
            if row is not None and row[0] <= qx:
                i = bisect_right(row, qx) - 1
                tx = row[i]
                if lim is None or tx > lim:
                    return 0, _hrange(qy, tx, qx - 1), hl
            if tx1 <= qx:
                hc = _hc1_horiz(qx, qy, -1, lim)
                if hc is not None:
                    return 1, hc, hl
                return 2, 0, hl
            off_line = ty1 != qy or ty2 != qy
        elif di == 1:  # RIGHT
            srow = _stops_row(qy)
            j = bisect_right(srow, qx)
            lim = srow[j] if j < len(srow) else None
            row = t_in_row.get(qy)
            if row is not None and row[-1] >= qx:
                i = bisect_left(row, qx)
                tx = row[i]
                if lim is None or tx < lim:
                    return 0, _hrange(qy, qx + 1, tx), hl
            if tx2 >= qx:
                hc = _hc1_horiz(qx, qy, +1, lim)
                if hc is not None:
                    return 1, hc, hl
                return 2, 0, hl
            off_line = ty1 != qy or ty2 != qy
        elif di == 2:  # UP
            scol = _stops_col(qx)
            j = bisect_right(scol, qy)
            lim = scol[j] if j < len(scol) else None
            col = t_in_col.get(qx)
            if col is not None and col[-1] >= qy:
                i = bisect_left(col, qy)
                ty = col[i]
                if lim is None or ty < lim:
                    return 0, _vrange(qx, qy + 1, ty), hl
            if ty2 >= qy:
                hc = _hc1_vert(qx, qy, +1, lim)
                if hc is not None:
                    return 1, hc, hl
                return 2, 0, hl
            off_line = tx1 != qx or tx2 != qx
        else:  # DOWN
            scol = _stops_col(qx)
            j = bisect_left(scol, qy) - 1
            lim = scol[j] if j >= 0 else None
            col = t_in_col.get(qx)
            if col is not None and col[0] <= qy:
                i = bisect_right(col, qy) - 1
                ty = col[i]
                if lim is None or ty > lim:
                    return 0, _vrange(qx, ty, qy - 1), hl
            if ty1 <= qy:
                hc = _hc1_vert(qx, qy, -1, lim)
                if hc is not None:
                    return 1, hc, hl
                return 2, 0, hl
            off_line = tx1 != qx or tx2 != qx
        return (2 if off_line else 3), 0, hl

    def heur_key(qx: int, qy: int, di: int) -> tuple[int, int, int]:
        """:func:`heur` in the ``-s`` key order."""
        hb, hc, hl = heur(qx, qy, di)
        return hb, hl, hc

    # Every bound below is in key order, like the costs it is added to.
    geometric = heur if crossings_first else heur_key
    # Heap entries are (f, -length so far, push counter, g, state): among
    # equal f the state with the longer path so far pops first, so
    # plateaus of equal-cost states are walked depth-first instead of
    # breadth-first, and the push counter keeps the order deterministic.
    counter = 0
    heap: list = []
    # state key: cell * 4 + dir_index -> best cost-so-far tuple (key order)
    best: dict[int, tuple[int, int, int]] = {}
    parents: dict[int, int | None] = {}
    sx, sy = start.x, start.y
    zero = (0, 0, 0)
    t_search = time.perf_counter()
    initial_bound: tuple[int, int, int] | None = None
    for d in start_directions:
        di = _DIR_INDEX[d]
        state = start_cell * 4 + di
        best[state] = zero
        parents[state] = None
        f = geometric(sx, sy, di)
        if initial_bound is None or f < initial_bound:
            initial_bound = f
        heapq.heappush(heap, (f, 0, counter, zero, state))
        counter += 1

    expanded = 0
    pruned = 0
    goal_state = None
    goal_cost = None
    heappush, heappop = heapq.heappush, heapq.heappop

    # -- escalation: exact lexicographic cost-to-go ---------------------
    # Most connections finish in a few hundred pops under the geometric
    # bound, but its bend component saturates at 3 and its crossing
    # component at the nearest target, while congested connections need
    # 4-11 bends, so the search floods plateaus of equal-bend states.
    # Such a connection escalates: :func:`cost_to_go` computes the
    # *exact* (bends, crossings, length) cost-to-go (relaxed only by
    # ignoring U-turn bans) of every state a search from the start can
    # pop while its bends stay within the start's relaxed bend count,
    # ``budget``, and the search restarts under it.  When start-direction
    # or arrival constraints make the optimum bendier than that, the
    # heap's minimum outgrows the budget before any goal pops: the field
    # widens once to every interval a target reaches and the search
    # restarts again.
    # Expansions spent before a restart stay counted; the escalation
    # threshold keeps that waste small against the tail it removes.
    field = memoryview(b"")
    plane_cells = nx * (y2 - y1 + 1)
    s1 = s2 = mask = 0
    budget: int | None = None
    field_s = 0.0
    dir_indices = [_DIR_INDEX[d] for d in start_directions]

    def heur_exact(qx: int, qy: int, di: int) -> tuple[int, int, int] | None:
        """The field's cost-to-go in key order; ``None`` prunes states no
        relaxed completion reaches (then no real completion exists
        either)."""
        v = field[(di >> 1) * plane_cells + (qy - y1) * nx + qx - x1]
        if v < 0:
            return None
        return v >> s2, (v >> s1) & mask, v & mask

    cur_heur: object = geometric
    escalated = False
    # Search-area hull for the telemetry row: the expanded states and the
    # start/target box the heuristic ranges towards.
    fx1, fy1 = min(sx, tx1), min(sy, ty1)
    fx2, fy2 = max(sx, tx2), max(sy, ty2)

    while heap:
        widen = budget is not None and heap[0][0][0] > budget
        if widen or (not escalated and expanded >= _ESCALATE_AFTER):
            t_field = time.perf_counter()
            grid, s1, budget = cost_to_go(
                view, target_dirs, cost_order, None if widen else (sx, sy), dir_indices
            )
            field_s += time.perf_counter() - t_field
            field = memoryview(grid.reshape(-1))
            s2, mask = 2 * s1, (1 << s1) - 1
            cur_heur = heur_exact
            if widen:
                counters.inc("route.field_widenings")
            else:
                escalated = True
                counters.inc("route.heur_escalations")
                if stats is not None:
                    stats.escalations += 1
            heap = []
            best = {}
            parents = {}
            for di in dir_indices:
                state = start_cell * 4 + di
                best[state] = zero
                parents[state] = None
                # The search only has to leave the start, so a start on a
                # stop of its own axis (which the sweep never enters)
                # keeps the geometric bound.
                if stops_at(start_cell, not _DIR_STEPS[di][2]):
                    f = geometric(sx, sy, di)
                else:
                    f = heur_exact(sx, sy, di)
                    if f is None:
                        continue
                heappush(heap, (f, 0, counter, zero, state))
                counter += 1
            if not heap:
                break
        _f, _, _, cost, state = heappop(heap)
        if cost != best.get(state):
            pruned += 1  # stale entry, superseded by a better push
            continue
        expanded += 1
        cell, di = state >> 2, state & 3
        i, j = divmod(cell, nx)
        px, py = x1 + j, y1 + i
        if px < fx1:
            fx1 = px
        elif px > fx2:
            fx2 = px
        if py < fy1:
            fy1 = py
        elif py > fy2:
            fy2 = py

        can_turn = not occ[cell] or cell in self_clear
        arrival_ok = goal_dirs.get(cell, _MISSING)
        if arrival_ok is not _MISSING and parents[state] is not None:
            if (arrival_ok is None or di in arrival_ok) and can_turn:
                goal_state, goal_cost = state, cost
                break

        c0, c1, c2 = cost
        for ndi in range(4):
            if ndi == _OPPOSITE[di]:
                continue
            turning = ndi != di
            if turning and not can_turn:
                continue
            dx, dy, step, blocks, unblock, crosses, own = moves[ndi]
            qx, qy = px + dx, py + dy
            if not (x1 <= qx <= x2 and y1 <= qy <= y2):
                continue
            q = cell + step
            if hard[q] and q not in allow_cells:
                continue
            if blocks[q] and q not in unblock:
                continue
            cross = crosses[q]
            if cross:
                cross -= own.get(q, 0)
            n0 = c0 + turning
            if crossings_first:
                n1, n2 = c1 + cross, c2 + 1
                depth = -n2
            else:
                n1, n2 = c1 + 1, c2 + cross
                depth = -n1
            ncost = (n0, n1, n2)
            nstate = q * 4 + ndi
            old = best.get(nstate)
            if old is None or ncost < old:
                h = cur_heur(qx, qy, ndi)
                if h is None:
                    continue
                best[nstate] = ncost
                parents[nstate] = state
                h0, h1, h2 = h
                f = (n0 + h0, n1 + h1, n2 + h2)
                heappush(heap, (f, depth, counter, ncost, nstate))
                counter += 1

    found = goal_state is not None and goal_cost is not None
    final_cost = (
        _unkey(goal_cost, cost_order) if found else None
    )  # (bends, crossings, length)
    if stats is not None:
        stats.states_expanded += expanded
        stats.pruned += pruned
        stats.routes += 1
        if not found:
            stats.failures += 1
        row = {
            "net": net,
            "start": [sx, sy],
            "targets": len(target_dirs),
            "pops": expanded,
            "pruned": pruned,
            "bound": (
                list(_unkey(initial_bound, cost_order)) if initial_bound else None
            ),
            "cost": list(final_cost) if final_cost else None,
            "escalated": escalated,
            "field_s": round(field_s, 6),
            "found": found,
            "area": (fx2 - fx1 + 1) * (fy2 - fy1 + 1),
            "seconds": round(time.perf_counter() - t_search, 6),
        }
        stats.record_connection(row)
    counters.inc("route.connections")
    counters.inc("route.expansions", expanded)
    counters.inc("route.astar_pruned", pruned)
    counters.observe("route.expansions_per_connection", expanded)
    if found and initial_bound is not None:
        # Bound tightness: estimated total bends at the start vs the
        # optimum actually found (1.0 = the bound was exact; +1 smooths
        # the all-straight zero-bend case).
        counters.observe(
            "route.bound_tightness",
            (initial_bound[0] + 1) / (final_cost[0] + 1),
        )
    if not found:
        counters.inc("route.connection_failures")
        return None

    path: list[Point] = []
    cursor = goal_state
    while cursor is not None:
        i, j = divmod(cursor >> 2, nx)
        path.append(Point(x1 + j, y1 + i))
        cursor = parents[cursor]
    path.reverse()
    bends, crossings, length = final_cost
    return RouteResult(
        path=normalize_path(path), bends=bends, crossings=crossings, length=length
    )


_MISSING = object()


def _unkey(
    cost: tuple[int, int, int], order: CostOrder
) -> tuple[int, int, int]:
    """Invert :meth:`CostOrder.key` back to (bends, crossings, length)."""
    if order is CostOrder.BENDS_CROSSINGS_LENGTH:
        return cost
    bends, length, crossings = cost
    return (bends, crossings, length)


def start_directions_for(side_outward: Direction | None) -> list[Direction]:
    """Initial expansion directions for a terminal (INIT_ACTIVES):
    subsystem terminals leave perpendicular to their module side, system
    terminals expand in all four directions."""
    if side_outward is None:
        return list(Direction)
    return [side_outward]
