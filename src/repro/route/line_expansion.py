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
(minus the net's own contributions) in O(log row).  The bound only has to
hold among minimum-bend completions — paths with more bends already lose
on the first lexicographic component — and range sums over nested
intervals only grow, so truncating at the *nearest* target keeps it a
lower bound.  No bound ever overestimates, so the first target state
popped is still the paper's exact optimum (bends, then crossings, then
length, and the ``-s`` swap) while states pointing away from every target
— or staring at a wall of foreign wires — are pruned.
Like the paper's algorithm (section 5.5.4) the search stays exhaustive: a
connection is found whenever one exists.

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
from .index import NetView, _prefix_entry
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
    states_expanded: int = 0
    #: Inclusive (x1, y1, x2, y2) hull of every plane point the search
    #: read — expanded states inflated by one (push-time neighbor and
    #: heuristic probes) unioned with the start and target boxes.  A
    #: foreign wire added strictly outside this hull cannot have changed
    #: the result, which is what speculative parallel routing checks
    #: before committing.  ``None`` means unbounded (the escalated BFS
    #: bound reads the whole reachable plane).
    footprint: tuple[int, int, int, int] | None = None


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
    #: Connections that escalated to the exact BFS bend-distance bound.
    escalations: int = 0
    #: Per-connection introspection rows ("why was this net slow") —
    #: pops vs the initial bound estimate, escalation, footprint area,
    #: final cost.  Bounded by :data:`MAX_CONNECTION_ROWS`.
    connections: list[dict] = field(default_factory=list)

    def record_connection(self, row: dict) -> None:
        if len(self.connections) < MAX_CONNECTION_ROWS:
            self.connections.append(row)


_State = tuple[Point, Direction]


#: (dx, dy, moves_horizontally) per direction, and the opposite's index.
_DIR_ORDER = [Direction.LEFT, Direction.RIGHT, Direction.UP, Direction.DOWN]
_DIR_STEPS = [(d.dx, d.dy, d.dy == 0) for d in _DIR_ORDER]
_DIR_INDEX = {d: i for i, d in enumerate(_DIR_ORDER)}
_OPPOSITE = [1, 0, 3, 2]

#: Pops a connection may spend under the geometric bound before the
#: search escalates to the exact BFS bend-distance heuristic.
_ESCALATE_AFTER = 256

#: Wave of an interval no target reaches (above every real wave).
_UNREACHED = 1 << 30


def bend_distance(
    view: NetView,
    target_dirs: Mapping[tuple[int, int], frozenset[int] | None],
) -> tuple[list[list[int]], list[list[int]]]:
    """Exact minimum remaining bends of every in-bounds state of the
    view's net towards the targets, relaxed only by ignoring U-turn bans
    (the admissible direction).

    ``target_dirs`` maps target points to their accepted arrival
    direction indices (``None`` for any), as the search's goal test reads
    them.  Returns ``(run_h, run_v)``: ``run_h[y - y1][x - x1]`` is the
    bound of a state at ``(x, y)`` travelling horizontally, ``run_v`` of
    one travelling vertically, and ``-1`` marks states from which no
    completion exists.

    This is the paper's line expansion run backwards from the targets:
    wave ``k`` holds every free interval (maximal stop-free run of a row
    or column) some target reaches with ``k`` bends.  Intervals are
    labelled by a cumulative sum along each axis and every wave is swept
    as whole intervals: a bendable point joins its row interval to its
    column interval one bend apart.
    """
    stop_h, stop_v, bendable = view.grids()
    ny, nx = stop_h.shape
    free_h, free_v = ~stop_h, ~stop_v
    # A free point starts an interval when the point before it on its
    # line is a stop or the plane border.  Counting starts in line order
    # numbers the intervals; every line's first free point is a start,
    # so no label spans two lines.  Stops get the sentinel label ``n``,
    # whose wave stays unreached.
    first_h = free_h.copy()
    first_h[:, 1:] &= stop_h[:, :-1]
    first_v = free_v.copy()
    first_v[1:, :] &= stop_v[:-1, :]
    n_h, n_v = int(first_h.sum()), int(first_v.sum())
    lab_h = np.cumsum(first_h).reshape(ny, nx)
    lab_v = np.cumsum(first_v.T).reshape(nx, ny).T
    lab_h -= 1
    lab_v -= 1
    lab_h[stop_h] = n_h
    lab_v[stop_v] = n_v
    wave_h = np.full(n_h + 1, _UNREACHED)
    wave_v = np.full(n_v + 1, _UNREACHED)
    # Seeds mirror the goal-acceptance rule, per arrival axis, so every
    # acceptable goal state reads distance 0.
    x1, y1 = view.x1, view.y1
    for (tx, ty), dirs in target_dirs.items():
        i, j = ty - y1, tx - x1
        if not (0 <= i < ny and 0 <= j < nx and bendable[i, j]):
            continue
        for tdi in range(4) if dirs is None else dirs:
            if _DIR_STEPS[tdi][2]:
                if free_h[i, j]:
                    wave_h[lab_h[i, j]] = 0
            elif free_v[i, j]:
                wave_v[lab_v[i, j]] = 0
    # One edge per point where a wire may bend: free on both axes and
    # free of foreign wires.
    corner = free_h & free_v & bendable
    edge_h, edge_v = lab_h[corner], lab_v[corner]
    level = 0
    while True:
        to_v = edge_v[wave_h[edge_h] == level]
        to_v = to_v[wave_v[to_v] == _UNREACHED]
        to_h = edge_h[wave_v[edge_v] == level]
        to_h = to_h[wave_h[to_h] == _UNREACHED]
        if not (to_v.size or to_h.size):
            break
        level += 1
        wave_v[to_v] = level
        wave_h[to_h] = level
    run_h = wave_h[lab_h]
    run_v = wave_v[lab_v]
    # A state may also bend where it stands onto the other axis.
    exact_h = np.where(bendable, np.minimum(run_h, run_v + 1), run_h)
    exact_v = np.where(bendable, np.minimum(run_v, run_h + 1), run_v)
    return (
        np.where(exact_h < _UNREACHED, exact_h, -1).tolist(),
        np.where(exact_v < _UNREACHED, exact_v, -1).tolist(),
    )


def route_connection(
    plane: Plane,
    net: str,
    start: Point,
    start_directions: Iterable[Direction],
    targets: Mapping[Point, frozenset[Direction] | None] | Iterable[Point],
    *,
    allow: frozenset[Point] = frozenset(),
    cost_order: CostOrder = CostOrder.BENDS_CROSSINGS_LENGTH,
    bidirectional: bool = False,
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
    net's own terminals; speculative parallel routing adds claim points
    the serial order would already have released).

    Returns ``None`` when no connection exists — and only then.
    """
    if not isinstance(targets, Mapping):
        targets = {p: None for p in targets}
    if not targets:
        return None
    start_directions = list(start_directions)
    view = plane.index.view(net, allow)
    if start in targets:
        # Zero-length connection: legal only under the same acceptance
        # rule as the main loop — the target must carry no foreign wire
        # and its arrival constraint must admit a start direction.
        dirs = targets[start]
        if (
            dirs is None or any(d in dirs for d in start_directions)
        ) and not view.foreign_at(start):
            return RouteResult(
                path=[start],
                bends=0,
                crossings=0,
                length=0,
                footprint=(start.x - 1, start.y - 1, start.x + 1, start.y + 1),
            )

    # Arrival constraints plus the target geometry the heuristic needs:
    # bounding box and sorted per-row/per-column target coordinates.
    target_dirs: dict[tuple[int, int], frozenset[int] | None] = {}
    t_in_row: dict[int, list[int]] = {}
    t_in_col: dict[int, list[int]] = {}
    tx1 = ty1 = 1 << 60
    tx2 = ty2 = -(1 << 60)
    for p, dirs in targets.items():
        tx, ty = p.x, p.y
        target_dirs[(tx, ty)] = (
            None if dirs is None else frozenset(_DIR_INDEX[d] for d in dirs)
        )
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
    x1, y1, x2, y2 = view.x1, view.y1, view.x2, view.y2
    hard_blocked = view.blocked
    hard_claims = view.claims
    blocked = (view.blocked_h, view.blocked_v)
    unblock = (view.unblock_h, view.unblock_v)
    cross_tot = (view.cross_h, view.cross_v)
    own_cross = (view.own_cross_h, view.own_cross_v)
    occ_pts = view.occ_pts
    self_clear = view.self_clear

    # -- crossover-aware bound plumbing ---------------------------------
    # The index prices a straight run's crossings over all nets; the
    # net's own contributions are subtracted with per-connection prefix
    # structures over the (small) own-crossing overlays.
    index = plane.index
    range_cross_h = index.range_cross_h
    range_cross_v = index.range_cross_v
    own_h_rows: dict[int, dict[int, int]] = {}
    for p, c in view.own_cross_h.items():
        own_h_rows.setdefault(p.y, {})[p.x] = c
    own_v_cols: dict[int, dict[int, int]] = {}
    for p, c in view.own_cross_v.items():
        own_v_cols.setdefault(p.x, {})[p.y] = c
    own_h_cache: dict[int, tuple[list[int], list[int]]] = {}
    own_v_cache: dict[int, tuple[list[int], list[int]]] = {}

    def _hrange(y: int, a: int, b: int) -> int:
        """Foreign crossings a horizontal run entering ``x in [a..b]``
        on row ``y`` must pay."""
        total = range_cross_h(y, a, b)
        if total and y in own_h_rows:
            entry = own_h_cache.get(y)
            if entry is None:
                entry = own_h_cache[y] = _prefix_entry(own_h_rows[y])
            coords, sums = entry
            total -= sums[bisect_right(coords, b)] - sums[bisect_left(coords, a)]
        return total

    def _vrange(x: int, a: int, b: int) -> int:
        total = range_cross_v(x, a, b)
        if total and x in own_v_cols:
            entry = own_v_cache.get(x)
            if entry is None:
                entry = own_v_cache[x] = _prefix_entry(own_v_cols[x])
            coords, sums = entry
            total -= sums[bisect_right(coords, b)] - sums[bisect_left(coords, a)]
        return total

    # Per-line *stop* coordinates for this net, bisected.  A straight
    # run cannot pass its first stop, which upgrades the bend bound
    # behind walls.  A line holding none of the view's exemptions
    # (``allow``, own-wire unblocks) stops exactly at the index's
    # obstacles, so it reads the index's shared sorted list (read-only
    # here); the few exempt lines are filtered once per connection.
    exempt_rows = {p[1] for p in allow}
    exempt_rows.update(p[1] for p in view.unblock_h)
    exempt_cols = {p[0] for p in allow}
    exempt_cols.update(p[0] for p in view.unblock_v)
    stop_rows: dict[int, list[int]] = {}
    stop_cols: dict[int, list[int]] = {}
    sorted_row, sorted_col = index.sorted_row, index.sorted_col
    view_stops = view._stops

    def _stops_row(y: int) -> list[int]:
        lst = stop_rows.get(y)
        if lst is None:
            lst = sorted_row(y)
            if y in exempt_rows:
                lst = [x for x in lst if view_stops(Point(x, y), False)]
            stop_rows[y] = lst
        return lst

    def _stops_col(x: int) -> list[int]:
        lst = stop_cols.get(x)
        if lst is None:
            lst = sorted_col(x)
            if x in exempt_cols:
                lst = [y for y in lst if view_stops(Point(x, y), True)]
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
        if (qx, qy) not in occ_pts or (qx, qy) in self_clear:
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
        if (qx, qy) not in occ_pts or (qx, qy) in self_clear:
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

    counter = 0
    heap: list = []
    # state key: (x, y, dir_index) -> best cost-so-far tuple (key order)
    best: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    parents: dict[tuple[int, int, int], tuple[int, int, int] | None] = {}
    sx, sy = start.x, start.y
    zero = (0, 0, 0)
    t_search = time.perf_counter()
    initial_bound: tuple[int, int, int] | None = None
    for d in start_directions:
        di = _DIR_INDEX[d]
        state = (sx, sy, di)
        best[state] = zero
        parents[state] = None
        hb, hc, hl = heur(sx, sy, di)
        f = (hb, hc, hl) if crossings_first else (hb, hl, hc)
        if initial_bound is None or f < initial_bound:
            initial_bound = f
        heapq.heappush(heap, (f, counter, zero, state))
        counter += 1

    expanded = 0
    pruned = 0
    goal_state = None
    goal_cost = None
    heappush, heappop = heapq.heappush, heapq.heappop

    if bidirectional:
        return _route_bidirectional(
            heap,
            best,
            parents,
            counter,
            target_dirs,
            heur,
            (_stops_row, _stops_col, _hrange, _vrange),
            (sx, sy),
            frozenset(_DIR_INDEX[d] for d in start_directions),
            allow,
            view,
            crossings_first,
            cost_order,
            stats,
        )

    # -- escalation: exact bend-distance lower bound --------------------
    # Most connections finish in a few hundred pops under the geometric
    # bound, but its bend component saturates at 3 while congested
    # connections need 4-11 bends, so the search degenerates towards
    # uniform-cost on the expensive tail.  Such a connection escalates:
    # :func:`bend_distance` computes the *exact* minimum remaining bends
    # of every state (relaxed only by ignoring U-turn bans) and the
    # search restarts under the stronger bound.  Expansions spent before
    # the restart stay counted; the budget keeps that waste small
    # against the tail it removes.
    exact_h: list[list[int]] = []
    exact_v: list[list[int]] = []

    def heur_exact(qx: int, qy: int, di: int) -> tuple[int, int, int] | None:
        """The geometric/crossover bound upgraded by the exact bend
        distance; ``None`` prunes states no relaxed completion reaches
        (then no real completion exists either)."""
        cand = (exact_h if _DIR_STEPS[di][2] else exact_v)[qy - y1][qx - x1]
        if cand < 0:
            return None
        if cand >= 4:
            # The geometric bend bound never exceeds 3, so it cannot
            # win; only its length component is needed.
            return cand, 0, max(tx1 - qx, 0, qx - tx2) + max(ty1 - qy, 0, qy - ty2)
        hb, hc, hl = heur(qx, qy, di)
        if cand > hb:
            return cand, 0, hl
        return hb, hc, hl

    cur_heur: object = heur
    escalated = False
    # Search-footprint hull: every read the search performs stays within
    # the expanded states (plus one for push-time probes) and the
    # start/target hull the heuristic ranges towards.
    fx1, fy1 = min(sx, tx1), min(sy, ty1)
    fx2, fy2 = max(sx, tx2), max(sy, ty2)

    while heap:
        if not escalated and expanded >= _ESCALATE_AFTER:
            escalated = True
            exact_h, exact_v = bend_distance(view, target_dirs)
            cur_heur = heur_exact
            counters.inc("route.heur_escalations")
            if stats is not None:
                stats.escalations += 1
            heap = []
            best = {}
            parents = {}
            for d in start_directions:
                di = _DIR_INDEX[d]
                state = (sx, sy, di)
                best[state] = zero
                parents[state] = None
                # The search only has to leave the start, so a start
                # outside the plane or on a stop of its own axis (which
                # the sweep never enters) keeps the geometric bound.
                if not (x1 <= sx <= x2 and y1 <= sy <= y2) or view_stops(
                    start, not _DIR_STEPS[di][2]
                ):
                    hbl = heur(sx, sy, di)
                else:
                    hbl = heur_exact(sx, sy, di)
                    if hbl is None:
                        continue
                hb, hc, hl = hbl
                f = (hb, hc, hl) if crossings_first else (hb, hl, hc)
                heappush(heap, (f, counter, zero, state))
                counter += 1
            if not heap:
                break
        _f, _, cost, state = heappop(heap)
        if cost != best.get(state):
            pruned += 1  # stale entry, superseded by a better push
            continue
        expanded += 1
        px, py, di = state
        if px < fx1:
            fx1 = px
        elif px > fx2:
            fx2 = px
        if py < fy1:
            fy1 = py
        elif py > fy2:
            fy2 = py

        point_key = (px, py)
        arrival_ok = target_dirs.get(point_key, _MISSING)
        if arrival_ok is not _MISSING and parents[state] is not None:
            if (arrival_ok is None or di in arrival_ok) and (
                point_key not in occ_pts or point_key in self_clear
            ):
                goal_state, goal_cost = state, cost
                break

        can_turn = point_key not in occ_pts or point_key in self_clear
        c0, c1, c2 = cost
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
            if (q in hard_blocked or q in hard_claims) and q not in allow:
                continue
            axis = 0 if moves_h else 1
            if q in blocked[axis] and q not in unblock[axis]:
                continue
            cross = cross_tot[axis].get(q, 0)
            if cross:
                cross -= own_cross[axis].get(q, 0)
            if crossings_first:
                ncost = (c0 + turning, c1 + cross, c2 + 1)
            else:
                ncost = (c0 + turning, c1 + 1, c2 + cross)
            nstate = (qx, qy, ndi)
            old = best.get(nstate)
            if old is None or ncost < old:
                hhl = cur_heur(qx, qy, ndi)
                if hhl is None:
                    continue
                best[nstate] = ncost
                parents[nstate] = state
                hb, hc, hl = hhl
                if crossings_first:
                    f = (ncost[0] + hb, ncost[1] + hc, ncost[2] + hl)
                else:
                    f = (ncost[0] + hb, ncost[1] + hl, ncost[2] + hc)
                heappush(heap, (f, counter, ncost, nstate))
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
            "bound": list(initial_bound) if initial_bound else None,
            "cost": list(final_cost) if final_cost else None,
            "escalated": escalated,
            "found": found,
            "area": (fx2 - fx1 + 1) * (fy2 - fy1 + 1),
            "unbounded": escalated,
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
        path.append(Point(cursor[0], cursor[1]))
        cursor = parents[cursor]
    path.reverse()
    bends, crossings, length = final_cost
    return RouteResult(
        path=normalize_path(path),
        bends=bends,
        crossings=crossings,
        length=length,
        states_expanded=expanded,
        footprint=(
            None
            if escalated
            else (fx1 - 1, fy1 - 1, fx2 + 1, fy2 + 1)
        ),
    )


def _route_bidirectional(
    heap: list,
    best: dict[tuple[int, int, int], tuple[int, int, int]],
    parents: dict[tuple[int, int, int], tuple[int, int, int] | None],
    counter: int,
    target_dirs: dict[tuple[int, int], frozenset[int] | None],
    heur,
    helpers,
    start_xy: tuple[int, int],
    start_dir_set: frozenset[int],
    allow: frozenset[Point],
    view,
    crossings_first: bool,
    cost_order: CostOrder,
    stats: SearchStats | None,
) -> RouteResult | None:
    """Meet-in-the-middle continuation of :func:`route_connection`.

    The forward search (seeded ``heap``/``best``/``parents``) keeps its
    semantics; a backward search grows path *suffixes* from every
    acceptable goal state towards the start.  Backward states share the
    forward state space — ``(point, entry direction)`` — and a backward
    cost deliberately *excludes* the entry cost at its own point (the
    forward cost-so-far pays it), so meeting on an identical state sums
    to exactly the full path cost with nothing double-counted.

    A meet candidate ``mu`` is recorded (and its path snapshotted — later
    reopenings may rewire parent chains) whenever a popped state exists
    on the other side.  Termination is sound per side: every undiscovered
    path must still thread an open state on *each* side with ``f`` at
    most its cost, so once either side's minimum ``f`` reaches ``mu`` no
    cheaper path remains.  Both sides stay exhaustive — ``None`` is
    returned only when no connection exists."""
    x1, y1 = view.x1, view.y1
    x2, y2 = view.x2, view.y2
    hard_blocked = view.blocked
    hard_claims = view.claims
    blocked = (view.blocked_h, view.blocked_v)
    unblock = (view.unblock_h, view.unblock_v)
    cross_tot = (view.cross_h, view.cross_v)
    own_cross = (view.own_cross_h, view.own_cross_v)
    occ_pts = view.occ_pts
    self_clear = view.self_clear
    sx, sy = start_xy
    zero = (0, 0, 0)
    heappush, heappop = heapq.heappush, heapq.heappop

    stops_row, stops_col, hrange, vrange = helpers

    def _hfree(y: int, a: int, b: int) -> bool:
        lst = stops_row(y)
        i = bisect_left(lst, a)
        return i >= len(lst) or lst[i] > b

    def _vfree(x: int, a: int, b: int) -> bool:
        lst = stops_col(x)
        i = bisect_left(lst, a)
        return i >= len(lst) or lst[i] > b

    def _bend_ok(x: int, y: int) -> bool:
        return (x, y) not in occ_pts or (x, y) in self_clear

    def heur_b(qx: int, qy: int, di: int) -> tuple[int, int, int]:
        """Admissible (bends, crossings, length) bound on any forward
        prefix from the start to state ``((qx, qy), di)``.

        The backward side enjoys what the forward side lacks: a single
        "target" (the start) and a fixed arrival direction, so the
        0-bend and 1-bend prefix candidates are *unique* straight runs
        whose feasibility (stop lists) and crossing price (range sums,
        including the entry crossing at ``q`` itself — the forward half
        of a meet pays it) are read off exactly.  Feasibility may only
        over-approximate, which weakens the bound without breaking
        admissibility: a claimed ``(0, c, l)`` stays lexicographically
        below every >=1-bend prefix regardless of ``c``."""
        hl = abs(qx - sx) + abs(qy - sy)
        if di == 0:  # entered moving LEFT: start right of q for cheap prefixes
            if sy == qy:
                if sx >= qx:
                    if _hfree(qy, qx + 1, sx - 1):
                        return 0, hrange(qy, qx, sx - 1), hl
                    return 2, 0, hl
                return 3, 0, hl
            if sx > qx and _bend_ok(sx, qy):
                lo, hi = (sy + 1, qy) if qy > sy else (qy, sy - 1)
                if _vfree(sx, lo, hi) and _hfree(qy, qx + 1, sx - 1):
                    return 1, vrange(sx, lo, hi) + hrange(qy, qx, sx - 1), hl
            return 2, 0, hl
        if di == 1:  # entered moving RIGHT
            if sy == qy:
                if sx <= qx:
                    if _hfree(qy, sx + 1, qx - 1):
                        return 0, hrange(qy, sx + 1, qx), hl
                    return 2, 0, hl
                return 3, 0, hl
            if sx < qx and _bend_ok(sx, qy):
                lo, hi = (sy + 1, qy) if qy > sy else (qy, sy - 1)
                if _vfree(sx, lo, hi) and _hfree(qy, sx + 1, qx - 1):
                    return 1, vrange(sx, lo, hi) + hrange(qy, sx + 1, qx), hl
            return 2, 0, hl
        if di == 2:  # entered moving UP (+y): start below q
            if sx == qx:
                if sy <= qy:
                    if _vfree(qx, sy + 1, qy - 1):
                        return 0, vrange(qx, sy + 1, qy), hl
                    return 2, 0, hl
                return 3, 0, hl
            if sy < qy and _bend_ok(qx, sy):
                lo, hi = (sx + 1, qx) if qx > sx else (qx, sx - 1)
                if _hfree(sy, lo, hi) and _vfree(qx, sy + 1, qy - 1):
                    return 1, hrange(sy, lo, hi) + vrange(qx, sy + 1, qy), hl
            return 2, 0, hl
        # entered moving DOWN (-y): start above q
        if sx == qx:
            if sy >= qy:
                if _vfree(qx, qy + 1, sy - 1):
                    return 0, vrange(qx, qy, sy - 1), hl
                return 2, 0, hl
            return 3, 0, hl
        if sy > qy and _bend_ok(qx, sy):
            lo, hi = (sx + 1, qx) if qx > sx else (qx, sx - 1)
            if _hfree(sy, lo, hi) and _vfree(qx, qy + 1, sy - 1):
                return 1, hrange(sy, lo, hi) + vrange(qx, qy, sy - 1), hl
        return 2, 0, hl

    # Backward seeds: exactly the forward goal-acceptance rule — a
    # terminable (foreign-free) target, an allowed arrival direction,
    # and a legal entry along it.
    heap_b: list = []
    best_b: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    parents_b: dict[tuple[int, int, int], tuple[int, int, int] | None] = {}
    counter_b = 0
    for pk, dirs in target_dirs.items():
        if pk in occ_pts and pk not in self_clear:
            continue
        if (pk in hard_blocked or pk in hard_claims) and pk not in allow:
            continue
        tx, ty = pk
        for di in range(4) if dirs is None else dirs:
            axis = 0 if _DIR_STEPS[di][2] else 1
            if pk in blocked[axis] and pk not in unblock[axis]:
                continue
            st = (tx, ty, di)
            best_b[st] = zero
            parents_b[st] = None
            hbb, hcb, hlb = heur_b(tx, ty, di)
            fb = (hbb, hcb, hlb) if crossings_first else (hbb, hlb, hcb)
            heappush(heap_b, (fb, counter_b, zero, st))
            counter_b += 1

    expanded = 0
    pruned = 0
    mu: tuple[int, int, int] | None = None
    mu_path: list[Point] | None = None
    # Search-footprint hull over both fronts (see RouteResult.footprint).
    fx1 = fx2 = sx
    fy1 = fy2 = sy
    for tx, ty in target_dirs:
        if tx < fx1:
            fx1 = tx
        elif tx > fx2:
            fx2 = tx
        if ty < fy1:
            fy1 = ty
        elif ty > fy2:
            fy2 = ty

    def snapshot(state: tuple[int, int, int]) -> list[Point]:
        pts: list[Point] = []
        cur: tuple[int, int, int] | None = state
        while cur is not None:
            pts.append(Point(cur[0], cur[1]))
            cur = parents[cur]
        pts.reverse()  # start .. meet point
        cur = parents_b[state]
        while cur is not None:
            pts.append(Point(cur[0], cur[1]))
            cur = parents_b[cur]
        return pts

    while True:
        if mu is not None and (
            not heap
            or heap[0][0] >= mu
            or not heap_b
            or heap_b[0][0] >= mu
        ):
            break
        if not heap or not heap_b:
            break  # a side exhausted with no meet: no connection exists
        if heap[0][0] <= heap_b[0][0]:
            _f, _, cost, state = heappop(heap)
            if cost != best.get(state):
                pruned += 1
                continue
            expanded += 1
            other = best_b.get(state)
            if other is not None:
                cand = (
                    cost[0] + other[0],
                    cost[1] + other[1],
                    cost[2] + other[2],
                )
                if mu is None or cand < mu:
                    mu = cand
                    mu_path = snapshot(state)
            px, py, di = state
            if px < fx1:
                fx1 = px
            elif px > fx2:
                fx2 = px
            if py < fy1:
                fy1 = py
            elif py > fy2:
                fy2 = py
            point_key = (px, py)
            can_turn = point_key not in occ_pts or point_key in self_clear
            c0, c1, c2 = cost
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
                if (q in hard_blocked or q in hard_claims) and q not in allow:
                    continue
                axis = 0 if moves_h else 1
                if q in blocked[axis] and q not in unblock[axis]:
                    continue
                cross = cross_tot[axis].get(q, 0)
                if cross:
                    cross -= own_cross[axis].get(q, 0)
                if crossings_first:
                    ncost = (c0 + turning, c1 + cross, c2 + 1)
                else:
                    ncost = (c0 + turning, c1 + 1, c2 + cross)
                nstate = (qx, qy, ndi)
                old = best.get(nstate)
                if old is None or ncost < old:
                    best[nstate] = ncost
                    parents[nstate] = state
                    hb, hc, hl = heur(qx, qy, ndi)
                    if crossings_first:
                        f = (ncost[0] + hb, ncost[1] + hc, ncost[2] + hl)
                    else:
                        f = (ncost[0] + hb, ncost[1] + hl, ncost[2] + hc)
                    heappush(heap, (f, counter, ncost, nstate))
                    counter += 1
        else:
            _f, _, cost, state = heappop(heap_b)
            if cost != best_b.get(state):
                pruned += 1
                continue
            expanded += 1
            other = best.get(state)
            if other is not None:
                cand = (
                    cost[0] + other[0],
                    cost[1] + other[1],
                    cost[2] + other[2],
                )
                if mu is None or cand < mu:
                    mu = cand
                    mu_path = snapshot(state)
            px, py, di = state
            if px < fx1:
                fx1 = px
            elif px > fx2:
                fx2 = px
            if py < fy1:
                fy1 = py
            elif py > fy2:
                fy2 = py
            dx, dy, moves_h = _DIR_STEPS[di]
            qx, qy = px - dx, py - dy
            if not (x1 <= qx <= x2 and y1 <= qy <= y2):
                continue
            q = (qx, qy)
            q_is_start = qx == sx and qy == sy
            q_hard = (q in hard_blocked or q in hard_claims) and q not in allow
            can_turn_q = q not in occ_pts or q in self_clear
            # The meet point's entry cost belongs to the forward side;
            # moving the frontier from p to q charges p's entry here.
            axis_p = 0 if moves_h else 1
            cross_p = cross_tot[axis_p].get(state[:2], 0)
            if cross_p:
                cross_p -= own_cross[axis_p].get(state[:2], 0)
            c0, c1, c2 = cost
            for ndi in range(4):
                if ndi == _OPPOSITE[di]:
                    continue
                turning = ndi != di
                if turning and not can_turn_q:
                    continue
                if not (q_is_start and ndi in start_dir_set):
                    # The untraversed start state is never *entered*, so
                    # its entry legality is moot — exactly like the
                    # forward side's initial states.
                    if q_hard:
                        continue
                    axis_q = 0 if _DIR_STEPS[ndi][2] else 1
                    if q in blocked[axis_q] and q not in unblock[axis_q]:
                        continue
                if crossings_first:
                    ncost = (c0 + turning, c1 + cross_p, c2 + 1)
                else:
                    ncost = (c0 + turning, c1 + 1, c2 + cross_p)
                nstate = (qx, qy, ndi)
                old = best_b.get(nstate)
                if old is None or ncost < old:
                    best_b[nstate] = ncost
                    parents_b[nstate] = state
                    hbb, hcb, hlb = heur_b(qx, qy, ndi)
                    if crossings_first:
                        fb = (ncost[0] + hbb, ncost[1] + hcb, ncost[2] + hlb)
                    else:
                        fb = (ncost[0] + hbb, ncost[1] + hlb, ncost[2] + hcb)
                    heappush(heap_b, (fb, counter_b, ncost, nstate))
                    counter_b += 1

    if stats is not None:
        stats.states_expanded += expanded
        stats.pruned += pruned
        stats.routes += 1
        if mu is None:
            stats.failures += 1
    counters.inc("route.connections")
    counters.inc("route.expansions", expanded)
    counters.inc("route.astar_pruned", pruned)
    counters.observe("route.expansions_per_connection", expanded)
    if mu is None or mu_path is None:
        counters.inc("route.connection_failures")
        return None
    bends, crossings, length = _unkey(mu, cost_order)
    return RouteResult(
        path=normalize_path(mu_path),
        bends=bends,
        crossings=crossings,
        length=length,
        states_expanded=expanded,
        footprint=(fx1 - 1, fy1 - 1, fx2 + 1, fy2 + 1),
    )


_MISSING = object()
_INF = (1 << 60, 1 << 60, 1 << 60)


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
