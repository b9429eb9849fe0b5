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

The search is an *admissible lexicographic A\\**.  Before its first pop
every connection builds a :class:`Field`: the exact lexicographic
(bends, crossings, length) cost to the targets on the problem with only
the U-turn ban lifted, found as the paper's segment wavefront run
backwards from the targets with costs attached, over the free intervals
the plane index keeps.  The search reads it lazily, state by state as
it pushes, and each state is ordered by its cost so far plus that
cost-to-go.  The relaxation never
overestimates, so the first target state popped is still the paper's
exact optimum (bends, then crossings, then length, and the ``-s`` swap),
and like the paper's algorithm (section 5.5.4) the search stays
exhaustive: a connection is found whenever one exists.

The field is exact on the start's *corridor* — the intervals that some
minimum-bend relaxed path from the start passes — and elsewhere carries
only a bend count that already exceeds the relaxed optimum, so states
off the corridor are never popped.  When start-direction or arrival
constraints make the real optimum bendier than the relaxed one, the
field widens once to every interval a target reaches and the search
restarts.  A start on a stop of its own axis, which the sweep never
enters, is bounded by ``(0, 0, 0)``: the search only has to leave it.
Among states of equal ``f`` the one with the longer path so far pops
first, so plateaus of equal-cost states are walked depth-first.

A failed connection carries a certificate of how its failure was
proven: ``field`` when the field left no start state to pop (the
relaxation already proves the targets unreachable), ``exhausted`` when
the heap emptied after at least one pop.

Obstacle queries come from the plane's incremental
:class:`~repro.route.index.PlaneIndex` — a per-connection
:class:`~repro.route.index.NetView` overlay built in O(own net), whose
exception lines the index relabels in place — instead of the O(plane)
snapshot rebuild the pre-index router paid per connection (that path
survives as :mod:`repro.route.reference` for benchmarking and
cross-checking).  The field's waves, layout offsets and corridor mark
live in the index's scratch arrays, sized once per plane, which the
field resets where it wrote them when it closes, also when the search
raises; what a connection allocates scales with the intervals it lays
out, not with the plane.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.geometry import Direction, Point, normalize_path
from ..obs import counters
from .index import UNLAID, UNREACHED, NetView
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
    #: Connections that built the cost-to-go field (every search does).
    escalations: int = 0
    #: How the latest failed connection's failure was proven:
    #: :data:`FIELD` or :data:`EXHAUSTED`.
    certificate: str | None = None
    #: Per-connection introspection rows ("why was this net slow") —
    #: pops vs the initial bound, search area, final cost, and a failed
    #: search's certificate.  Bounded by :data:`MAX_CONNECTION_ROWS`.
    connections: list[dict] = field(default_factory=list)

    def record_connection(self, row: dict) -> None:
        if len(self.connections) < MAX_CONNECTION_ROWS:
            self.connections.append(row)


#: Failure certificates: the cost-to-go field left no start state to pop
#: (the relaxation proves the targets unreachable), or the heap emptied
#: after at least one pop.
FIELD = "field"
EXHAUSTED = "exhausted"


#: (dx, dy, moves_horizontally) per direction, and the opposite's index.
_DIR_ORDER = [Direction.LEFT, Direction.RIGHT, Direction.UP, Direction.DOWN]
_DIR_STEPS = [(d.dx, d.dy, d.dy == 0) for d in _DIR_ORDER]
_DIR_INDEX = {d: i for i, d in enumerate(_DIR_ORDER)}
_OPPOSITE = [1, 0, 3, 2]

#: Largest magnitude the sweeps may reach in int64 arithmetic; beyond
#: it they run on Python integers.
_INT64_LIMIT = 1 << 63


class Field:
    """The lexicographic cost-to-go of a view's net towards the targets,
    relaxed only by ignoring U-turn bans (the admissible direction):
    exact wherever a search from ``start`` can pop, a lower bound
    elsewhere.  The search reads it state by state, :meth:`at` or the
    same steps inline, and closes it when done.

    ``target_dirs`` maps target points to their accepted arrival
    direction indices (``None`` for any), as the search's goal test reads
    them; ``start_dirs`` are the start's direction indices.  A state's
    value is packed into one int as ``(bends << 2 * shift) + (first <<
    shift) + second``, where ``(first, second)`` is ``(crossings,
    length)`` — or ``(length, crossings)`` under the ``-s`` order — so
    packed values compare like :meth:`CostOrder.key` tuples.  ``-1``
    marks states on a stop of their own axis (never entered; the search
    bounds starts there itself).

    This is the paper's line expansion run backwards from the targets,
    with costs attached to the segment wavefront, over the free
    intervals the plane index keeps (:meth:`PlaneIndex.label_for
    <repro.route.index.PlaneIndex.label_for>` makes them the view's).
    Wave ``k`` holds every free interval (maximal stop-free run of a row
    or column) some target reaches with ``k`` bends: each wave gathers
    its intervals' points, keeps the corners (points free on both axes
    without a foreign wire) and steps to their other-axis intervals.
    Then, wave by wave, every point of a wave-``k`` interval takes the
    cheapest seed of its interval plus the straight run to it.  Wave-0
    seeds are the accepted targets (value 0); wave-``k`` seeds are the
    interval's corners whose other-axis state is on wave ``k - 1``, with
    that state's value plus one bend.  A bendable point is free on both
    axes or on neither, so these seeds also cover a state bending where
    it stands.  Both axes share one layout, by wave, and one sweep per
    wave: wave ``k`` reads only wave ``k - 1`` values.

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

    The waves, the layout offsets and the corridor mark live in the
    index's scratch arrays (``wave``, ``laid``), written only on the
    intervals the field reaches; :meth:`close` resets them there.
    """

    __slots__ = ("index", "shift", "budget", "values", "_s2", "_waved", "_laid")

    def __init__(
        self,
        view: NetView,
        target_dirs: Mapping[tuple[int, int], frozenset[int] | None],
        cost_order: CostOrder,
        start: tuple[int, int] | None = None,
        start_dirs: Iterable[int] = range(4),
    ) -> None:
        index = view.index
        index.label_for(view)
        self.index = index
        self.budget: int | None = None
        self.values = memoryview(np.zeros(0, dtype=np.int64))
        # The interval arrays whose ``wave`` / ``laid`` entries this
        # field wrote, recorded before each write.
        self._waved: list[np.ndarray] = []
        self._laid: list[np.ndarray] = []
        try:
            self._build(view, target_dirs, cost_order, start, start_dirs)
        except BaseException:
            self.close()
            raise

    def _build(self, view, target_dirs, cost_order, start, start_dirs) -> None:
        index = self.index
        n, nx, ny = index.n, index.nx, index.ny
        lab, size, wave, laid = index.lab, index.size, index.wave, index.laid
        _, lab_at, _, wave_at = index.mv
        # Both cost components of any candidate — an optimal completion,
        # which enters each state at most once, plus one straight run — fit
        # in ``shift`` bits, so packed sums never carry between them.
        cap = max(2 * n + max(nx, ny), 2 * (index.crossings - view.own_crossings))
        self.shift = shift = cap.bit_length()
        self._s2 = s2 = 2 * shift
        # Seeds mirror the goal-acceptance rule, per arrival axis, so every
        # acceptable goal state reads cost 0.
        targets = set()
        x1, y1 = view.x1, view.y1
        occ, self_clear = index.occ, view.self_clear
        for (tx, ty), dirs in target_dirs.items():
            i, j = ty - y1, tx - x1
            if not (0 <= i < ny and 0 <= j < nx):
                continue
            c = i * nx + j
            if occ[c] and c not in self_clear:
                continue
            for tdi in range(4) if dirs is None else dirs:
                p = c if tdi < 2 else n + j * ny + i
                if lab_at[p] >= 0:
                    targets.add(p)
        targets = np.fromiter(targets, dtype=np.intp, count=len(targets))
        front = self._distinct(lab[targets])
        self._waved.append(front)
        wave[front] = 0
        # The start's interval on each axis it may leave on, if it has one.
        entry = None
        if start is not None:
            i, j = start[1] - y1, start[0] - x1
            if 0 <= i < ny and 0 <= j < nx:
                axes = {d >> 1 for d in start_dirs}
                at = [lab_at[i * nx + j if a == 0 else n + j * ny + i] for a in axes]
                if at and min(at) >= 0:
                    entry = at
        # The bend waves, frontier by frontier; with an entry they stop at
        # the first wave holding one of its intervals.
        level = 0
        while True:
            if entry is not None and min(wave_at[s] for s in entry) <= level:
                self.budget = level
                break
            ids = self._neighbours(front)
            front = self._distinct(ids[wave[ids] == UNREACHED])
            if not front.size:
                break
            level += 1
            self._waved.append(front)
            wave[front] = level
        budget = self.budget
        if entry is None:
            members = np.concatenate(self._waved)
            self._laid.append(members)
        elif budget is None:
            return  # no start interval reached: every state reads -1
        else:
            # The corridor, as forward waves from the entry that only enter
            # intervals with room left for their backward wave: every
            # interval on a shortest forward path to a corridor interval is
            # in the corridor itself.  ``laid`` marks it until the layout.
            front = np.array([s for s in entry if wave_at[s] == budget], dtype=np.intp)
            self._laid.append(front)
            laid[front] = 0
            for room in range(budget - 1, -1, -1):
                ids = self._neighbours(front)
                front = self._distinct(ids[(laid[ids] == UNLAID) & (wave[ids] <= room)])
                self._laid.append(front)
                laid[front] = 0
            members = np.concatenate(self._laid)
            level = budget
        if not members.size:
            return
        # Lay the swept intervals out by wave, in line order within a wave
        # (rows before columns), so each wave's sweep reads slices.  A
        # swept position ``p`` sits at ``laid[lab[p]] + p`` in the layout.
        key = wave[members].astype(np.int64) * (2 * n) + members
        key.sort()
        waves, members = np.divmod(key, 2 * n)
        members = members.astype(np.int32)
        sizes = size[members]
        ends = np.cumsum(sizes, dtype=np.int32)
        laid[members] = ends - sizes - members
        at = np.repeat(members - ends + sizes, sizes)
        at += np.arange(ends[-1], dtype=np.int32)
        other = index.other[at]
        # Foreign crossings entering each point along its axis.
        cells = np.minimum(at, other)
        cross = index.grid(index.cross_h).ravel()[cells]
        vertical = at >= n
        cross[vertical] = index.grid(index.cross_v).ravel()[cells[vertical]]
        if view.own_crossings:
            own = np.array(
                [*view.own_cross_h, *(n + c % nx * ny + c // nx for c in view.own_cross_v)],
                dtype=np.intp,
            )
            first = lab[own]
            where = laid[first] + own
            keep = (first >= 0) & (laid[first] != UNLAID)
            counts = [*view.own_cross_h.values(), *view.own_cross_v.values()]
            cross[where[keep]] -= np.array(counts)[keep]
        # Which wave's other-axis state seeds each point: a corner's, or -1
        # (seeding wave 0) at an accepted target.
        seeded_by = np.where(index.corner[at], wave[lab[other]], -2)
        offsets = laid[lab[targets]]
        swept = offsets != UNLAID
        seeded_by[(offsets + targets)[swept]] = -1
        # Packed cost of entering each point, summed over the layout up
        # to and excluding / including the point: within an interval a
        # straight run from ``p`` to ``b`` costs ``excl[p] - excl[b]``
        # leftwards and ``incl[b] - incl[p]`` rightwards.
        unit = 1 << shift
        step = cross.astype(np.int64)
        if cost_order is CostOrder.BENDS_CROSSINGS_LENGTH:
            step *= unit
            step += 1
        else:
            step += unit
        incl = np.cumsum(step)
        excl = incl - step
        # One offset span per interval, wider than every entry of every
        # sweep, so a running minimum never crosses into the next
        # interval.  Seeds are a bend plus optimal completions, whose
        # components are at most ``cap``.
        reach = int(incl[-1])
        none = (level << s2) + (cap << shift) + cap + 2 * reach + 1
        span = none + reach + 1
        place = np.arange(members.size, dtype=np.int64)
        if members.size * span + none >= _INT64_LIMIT:
            place, excl, incl = (x.astype(object) for x in (place, excl, incl))
        offset = np.repeat(place * span, sizes)
        values = np.zeros(at.size, dtype=np.int64)
        bounds = np.concatenate(([0], ends))[
            np.searchsorted(waves, np.arange(level + 2))
        ].tolist()
        bend = 1 << s2
        for k in range(level + 1):
            lo, hi = bounds[k], bounds[k + 1]
            if lo == hi:
                continue
            seeds = np.flatnonzero(seeded_by[lo:hi] == k - 1)
            seed_value = 0
            if k:
                q = other[lo + seeds]
                seed_value = values[laid[lab[q]] + q] + bend
            values[lo:hi] = _sweep(
                seeds, seed_value, offset[lo:hi], excl[lo:hi], incl[lo:hi], none
            )
        self.values = memoryview(values)

    def _neighbours(self, front: np.ndarray) -> np.ndarray:
        """The other-axis intervals of every corner of the ``front``
        intervals (with repeats)."""
        index = self.index
        points = _ranges(front, index.size[front])
        return index.lab[index.other[points[index.corner[points]]]]

    def _distinct(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` without repeats."""
        slot = self.index.slot
        order = np.arange(ids.size, dtype=np.int32)
        slot[ids] = order
        return ids[slot[ids] == order]

    def at(self, axis: int, cell: int) -> int:
        """The packed cost-to-go of the state at ``cell`` travelling
        along ``axis`` (0 horizontal, 1 vertical)."""
        other, lab, laid, wave = self.index.mv
        p = other[cell] if axis else cell
        first = lab[p]
        if first < 0:
            return -1
        offset = laid[first]
        if offset != UNLAID:
            return self.values[offset + p]
        if self.budget is None:
            return -1
        return min(wave[first], self.budget + 1) << self._s2

    def close(self) -> None:
        """Reset the index's scratch where this field wrote it."""
        index = self.index
        for ids in self._waved:
            index.wave[ids] = UNREACHED
        for ids in self._laid:
            index.laid[ids] = UNLAID
        self._waved.clear()
        self._laid.clear()


def cost_to_go(
    view: NetView,
    target_dirs: Mapping[tuple[int, int], frozenset[int] | None],
    cost_order: CostOrder,
    start: tuple[int, int] | None = None,
    start_dirs: Iterable[int] = range(4),
) -> tuple[np.ndarray, int, int | None]:
    """The :class:`Field` of these arguments materialised from
    :meth:`Field.at`: ``(field, shift, budget)``, where
    ``field[0][y - y1][x - x1]`` is the value of a state at ``(x, y)``
    travelling horizontally and ``field[1]`` of one travelling
    vertically."""
    field = Field(view, target_dirs, cost_order, start, start_dirs)
    try:
        index = view.index
        dense = np.array(
            [[field.at(axis, cell) for cell in range(index.n)] for axis in (0, 1)],
            dtype=np.int64,
        )
        return dense.reshape(2, index.ny, index.nx), field.shift, field.budget
    finally:
        field.close()


def _ranges(begin: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The runs ``begin[i] + t`` for ``t < size[i]``, concatenated, as
    int32 line-space positions."""
    total = np.cumsum(size, dtype=np.int32)
    runs = np.repeat(begin - total + size, size)
    runs += np.arange(runs.size, dtype=np.int32)
    return runs


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
    # plus the targets' bounding box for the search-area telemetry.
    target_dirs: dict[tuple[int, int], frozenset[int] | None] = {}
    goal_dirs: dict[int, frozenset[int] | None] = {}
    sx, sy = start.x, start.y
    fx1 = fx2 = sx
    fy1 = fy2 = sy
    for p, dirs in targets.items():
        tx, ty = p.x, p.y
        accepted = None if dirs is None else frozenset(_DIR_INDEX[d] for d in dirs)
        target_dirs[(tx, ty)] = accepted
        cell = index.cell(p)
        if cell is not None:
            goal_dirs[cell] = accepted
        if tx < fx1:
            fx1 = tx
        elif tx > fx2:
            fx2 = tx
        if ty < fy1:
            fy1 = ty
        elif ty > fy2:
            fy2 = ty

    crossings_first = cost_order is CostOrder.BENDS_CROSSINGS_LENGTH
    # Every probe reads the index's buffers, the view's exceptions and the
    # view's labels by cell, ``(y - y1) * nx + x - x1``; per direction:
    # the step, the cell offset, the crossing buffer and own crossings of
    # the axis it moves along, and whether that axis is vertical (its
    # line-space position is ``other[cell]``).
    x1, y1, x2, y2, nx = view.x1, view.y1, view.x2, view.y2, view.nx
    occ = index.occ
    self_clear = view.self_clear
    other, lab, laid, wave = index.mv
    axes = (
        (index.cross_h, view.own_cross_h, False),
        (index.cross_v, view.own_cross_v, True),
    )
    moves = [
        (dx, dy, dx + dy * nx, *axes[0 if moves_h else 1])
        for dx, dy, moves_h in _DIR_STEPS
    ]
    dir_indices = [_DIR_INDEX[d] for d in start_directions]
    heappush, heappop = heapq.heappush, heapq.heappop
    zero = (0, 0, 0)
    t_search = time.perf_counter()
    initial_bound: tuple[int, int, int] | None = None
    expanded = 0
    pruned = 0
    field_s = 0.0
    goal_state = None
    goal_cost = None
    if stats is not None:
        stats.escalations += 1
    counters.inc("route.heur_escalations")

    # The search runs under the cost-to-go field swept over the start's
    # corridor.  When start-direction or arrival constraints make the
    # optimum bendier than the start's relaxed bend count ``budget``, the
    # heap's minimum outgrows the budget before any goal pops: the field
    # widens once to every interval a target reaches and the search
    # restarts.  Expansions spent before the restart stay counted.  Each
    # field is closed before the next opens, and on any exception.
    for corridor in (True, False):
        t_field = time.perf_counter()
        field = Field(
            view, target_dirs, cost_order, (sx, sy) if corridor else None, dir_indices
        )
        field_s += time.perf_counter() - t_field
        try:
            if not corridor:
                counters.inc("route.field_widenings")
            # A state off the swept intervals reads its interval's wave,
            # capped at ``over``; without a budget it has no completion.
            budget, values = field.budget, field.values
            over = -1 if budget is None else budget + 1
            s1 = field.shift
            s2, mask = 2 * s1, (1 << s1) - 1
            # Heap entries are (f, -length so far, push counter, g, state):
            # among equal f the state with the longer path so far pops
            # first, so plateaus of equal-cost states are walked
            # depth-first instead of breadth-first, and the push counter
            # keeps the order deterministic.  States are keyed
            # ``cell * 4 + dir_index``.
            heap: list = []
            best: dict[int, tuple[int, int, int]] = {}
            parents: dict[int, int | None] = {}
            for counter, di in enumerate(dir_indices):
                state = start_cell * 4 + di
                if view.stops_at(start_cell, not _DIR_STEPS[di][2]):
                    f = zero  # the sweep never enters a stop of its own axis
                else:
                    v = field.at(di >> 1, start_cell)
                    if v < 0:
                        continue  # no relaxed completion, so no real one
                    f = (v >> s2, (v >> s1) & mask, v & mask)
                best[state] = zero
                parents[state] = None
                if initial_bound is None or f < initial_bound:
                    initial_bound = f
                heappush(heap, (f, 0, counter, zero, state))
            counter = len(dir_indices)

            while heap:
                if budget is not None and heap[0][0][0] > budget:
                    break  # widen
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
                    dx, dy, step, crosses, own, vertical = moves[ndi]
                    qx, qy = px + dx, py + dy
                    if not (x1 <= qx <= x2 and y1 <= qy <= y2):
                        continue
                    q = cell + step
                    p = other[q] if vertical else q
                    first = lab[p]
                    if first < 0:
                        continue  # a stop of the axis it moves along
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
                        # :meth:`Field.at`, inline.
                        offset = laid[first]
                        if offset != UNLAID:
                            v = values[offset + p]
                        elif over < 0:
                            continue  # no relaxed completion, so no real one
                        else:
                            v = wave[first]
                            v = (v if v < over else over) << s2
                        best[nstate] = ncost
                        parents[nstate] = state
                        f = (n0 + (v >> s2), n1 + ((v >> s1) & mask), n2 + (v & mask))
                        heappush(heap, (f, depth, counter, ncost, nstate))
                        counter += 1
            else:
                break  # the heap emptied: no connection exists
            if goal_state is not None:
                break
        finally:
            field.close()

    found = goal_state is not None
    final_cost = _unkey(goal_cost, cost_order) if found else None
    certificate = None if found else (EXHAUSTED if expanded else FIELD)
    if stats is not None:
        stats.states_expanded += expanded
        stats.pruned += pruned
        stats.routes += 1
        if not found:
            stats.failures += 1
            stats.certificate = certificate
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
            "escalated": True,
            "field_s": round(field_s, 6),
            "found": found,
            "certificate": certificate,
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
