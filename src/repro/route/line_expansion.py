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

The field is swept only over the start's *corridor* — the intervals
that some minimum-bend relaxed path from the start passes — which its
waves find growing from both ends; every other state reads unswept and
is never pushed, since its cost would exceed the start's relaxed bend
count.  When start-direction or arrival constraints make the real
optimum bendier than the relaxed one, the heap empties after such a
skip: the field widens once to every interval a target reaches and the
search restarts.  A start on a stop of its own axis, which the sweep
never enters, is bounded by ``(0, 0, 0)``: the search only has to leave
it.  Among states of equal ``f`` the one with the longer path so far
pops first, so plateaus of equal-cost states are walked depth-first.

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
cross-checking).  The field's waves from both ends and its layout
offsets live in the index's scratch arrays, sized once per plane, which
the field resets where it wrote them when it closes, also when the
search raises; what a connection allocates scales with the intervals
its waves reach, not with the plane.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.geometry import Direction, Point
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
    exact wherever it is swept.  The search reads it state by state,
    :meth:`at` or the same steps inline, and closes it when done.

    ``target_dirs`` maps target points to their accepted arrival
    direction indices (``None`` for any), as the search's goal test reads
    them; ``start_dirs`` are the start's direction indices.  A state's
    value is packed into one int as ``(bends << 2 * shift) + (first <<
    shift) + second``, where ``(first, second)`` is ``(crossings,
    length)`` — or ``(length, crossings)`` under the ``-s`` order — so
    packed values compare like :meth:`CostOrder.key` tuples.  ``-1``
    marks an unswept state: one on a stop of its own axis (never
    entered; the search bounds starts there itself), one no target
    reaches, and, with a start, one off its corridor.

    This is the paper's line expansion run backwards from the targets,
    with costs attached to the segment wavefront, over the free
    intervals the plane index keeps (:meth:`PlaneIndex.label_for
    <repro.route.index.PlaneIndex.label_for>` makes them the view's).
    A wave steps from intervals (maximal stop-free runs of a row or
    column) to intervals: it gathers its frontier's points, keeps the
    corners (points free on both axes without a foreign wire) and steps
    to their other-axis intervals.  Backward wave ``k`` holds the
    intervals some target reaches with ``k`` bends.  The swept
    intervals are laid out by backward wave, and every point of a
    wave-``k`` interval takes the cheapest seed of its interval plus the
    straight run to it.  Wave-0 seeds are the accepted targets (value
    0); wave-``k`` seeds are the interval's corners whose other-axis
    state is on wave ``k - 1``, with that state's value plus one bend.
    A bendable point is free on both axes or on neither, so these seeds
    also cover a state bending where it stands.  Both axes share one
    layout and one sweep per wave: wave ``k`` reads only wave ``k - 1``
    values.

    Without a ``start`` — or with one outside the plane or on a stop of
    an axis it may leave on, which has no interval to start from — the
    backward waves run until they stop growing and every interval they
    reach is swept; the wave that reaches an interval also gathers its
    seeds, the corners it stepped through.  ``budget`` is ``None``.

    With one, only the *corridor* is swept: the intervals some
    minimum-bend relaxed path from the start's intervals on its allowed
    axes passes.  Forward waves grow from those intervals and backward
    waves from the targets', always on the side whose frontier holds
    fewer points, until a new frontier touches the other side.  The
    budget ``B`` is then ``a + b``, the forward wave ``a`` of the
    touching intervals plus their backward wave ``b`` (every interval
    the other side reached sits at its last wave), and ``B`` is the
    start's exact relaxed bend count.  An interval is on the corridor
    exactly when its forward wave ``u`` and backward wave ``w`` add up
    to ``B``; the touching intervals are its layer ``u = a``.  A walk
    from that layer gathers the rest: a corridor interval's neighbours
    at forward wave ``u - 1`` are the corridor's layer ``u - 1``, and
    those at backward wave ``w - 1`` its layer ``u + 1``.  The corners
    it keeps are every layer's seeds: walking to the targets, the
    corners of the layer being left; walking to the start, their
    other-axis positions on the layer being entered.  A side that stops
    growing first proves that no start interval is reached: ``budget``
    stays ``None`` and every state reads ``-1``.

    The waves, the layout offsets and the dedupe slots live in the
    index's scratch arrays (``wave``, ``fwave``, ``laid``, ``slot``),
    written only on the intervals the field reaches; :meth:`close`
    resets them there.
    """

    __slots__ = ("index", "shift", "budget", "values", "_waved", "_laid")

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
        # The wave arrays and intervals whose ``wave`` / ``fwave`` entries
        # this field wrote, and the intervals whose ``laid`` entries it
        # wrote, recorded before each write.
        self._waved: list[tuple[np.ndarray, np.ndarray]] = []
        self._laid: list[np.ndarray] = []
        try:
            self._build(view, target_dirs, cost_order, start, start_dirs)
        except BaseException:
            self.close()
            raise

    def _build(self, view, target_dirs, cost_order, start, start_dirs) -> None:
        index = self.index
        n, nx, ny = index.n, index.nx, index.ny
        lab, size, other, laid = index.lab, index.size, index.other, index.laid
        lab_at = index.mv[1]
        # Both cost components of any candidate — an optimal completion,
        # which enters each state at most once, plus one straight run — fit
        # in ``shift`` bits, so packed sums never carry between them.
        cap = max(2 * n + max(nx, ny), 2 * (index.crossings - view.own_crossings))
        self.shift = shift = cap.bit_length()
        s2 = 2 * shift
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
        back = self._distinct(lab[targets])
        if not back.size:
            return  # no target state: every state reads -1
        self._mark(index.wave, back, 0)
        # The start's interval on each axis it may leave on, if it has one.
        entry = None
        if start is not None:
            i, j = start[1] - y1, start[0] - x1
            if 0 <= i < ny and 0 <= j < nx:
                axes = {d >> 1 for d in start_dirs}
                at = [lab_at[i * nx + j if a == 0 else n + j * ny + i] for a in axes]
                if at and min(at) >= 0:
                    entry = np.array(at, dtype=np.intp)
        # The swept intervals and their points, by backward wave, and the
        # seeds of every wave after the first.
        if entry is None:
            layers, seeds = self._backward(back)
        else:
            layers, seeds = self._corridor(back, entry)
            if not layers:
                return  # no start interval reached: every state reads -1
        level = len(layers) - 1
        # A swept position ``p`` sits at ``laid[lab[p]] + p`` in the layout.
        members = np.concatenate([firsts for firsts, _ in layers])
        sizes = size[members]
        ends = np.cumsum(sizes, dtype=np.int32)
        self._laid.append(members)
        laid[members] = ends - sizes - members
        at = np.concatenate([runs for _, runs in layers])
        bounds = list(itertools.accumulate((runs.size for _, runs in layers), initial=0))
        # Foreign crossings entering each point along its axis.
        cells = np.minimum(at, other[at])
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
        # One offset span per interval, wider than every entry of every
        # sweep, so a running minimum never crosses into the next
        # interval.  Seeds are a bend plus optimal completions, whose
        # components are at most ``cap``.
        reach = int(incl[-1])
        none = (level << s2) + (cap << shift) + cap + 2 * reach + 1
        span = none + reach + 1
        place = np.arange(members.size, dtype=np.int64)
        if members.size * span + none >= _INT64_LIMIT:
            place, step, incl = (x.astype(object) for x in (place, step, incl))
        # ``excl`` and ``incl`` plus each point's interval offset.
        trail = incl + np.repeat(place * span, sizes)
        lead = trail - step
        # Wave 0 is seeded by the accepted targets it lays out, every later
        # one by the values of its seeds' other-axis positions plus a bend.
        offsets = laid[lab[targets]]
        where = (offsets + targets)[offsets != UNLAID]
        seed_value = 0
        if level:
            cuts = list(itertools.accumulate(map(len, seeds), initial=0))
            later = np.concatenate(seeds)
            source = other[later]
            source += laid[lab[source]]
            later += laid[lab[later]]
        values = np.zeros(at.size, dtype=np.int64)
        bend = 1 << s2
        for k in range(level + 1):
            lo, hi = bounds[k], bounds[k + 1]
            if k:
                where = later[cuts[k - 1] : cuts[k]]
                seed_value = values[source[cuts[k - 1] : cuts[k]]] + bend
            values[lo:hi] = _sweep(where - lo, seed_value, lead[lo:hi], trail[lo:hi], none)
        self.values = memoryview(values)

    def _backward(self, front: np.ndarray) -> tuple[list, list]:
        """Every interval the backward waves from wave 0, ``front``, reach:
        ``(firsts, points)`` per wave, and the seeds of each wave after
        the first, the corners the wave reached them through."""
        wave = self.index.wave
        layers, seeds = [], []
        while True:
            runs, _, q, ids = self._gather(front)
            layers.append((front, runs))
            new = wave[ids] == UNREACHED
            ids = ids[new]
            if not ids.size:
                return layers, seeds
            seeds.append(q[new])
            front = self._distinct(ids)
            self._mark(wave, front, len(layers))

    def _corridor(self, back: np.ndarray, entry: np.ndarray) -> tuple[list, list]:
        """The corridor from the ``entry`` intervals to the backward
        wave-0 intervals ``back``, as layers and seeds like
        :meth:`_backward`'s, with :attr:`budget` set; no layers when the
        two sides never meet."""
        index = self.index
        size = index.size
        marks = (index.wave, index.fwave)  # backward, forward
        self._mark(index.fwave, entry, 0)
        touch = entry[index.wave[entry] != UNREACHED]
        fronts, depths = [back, entry], [0, 0]
        points = [size[back].sum(), size[entry].sum()]
        while not touch.size:
            side = int(points[1] < points[0])
            ids = self._gather(fronts[side])[3]
            front = self._distinct(ids[marks[side][ids] == UNREACHED])
            if not front.size:
                return [], []  # this side stopped growing: no path meets
            depths[side] += 1
            self._mark(marks[side], front, depths[side])
            fronts[side], points[side] = front, size[front].sum()
            touch = front[marks[1 - side][front] != UNREACHED]
        b, a = depths
        self.budget = budget = a + b
        # Layer by backward wave ``k``, forward wave ``budget - k``.
        layers, seeds = [None] * (budget + 1), [None] * budget
        meet = self._gather(touch)
        layers[b] = touch, meet[0]
        # Toward the targets: the layer being left keeps the corners one
        # backward wave closer; they are its seeds.
        runs, p, q, ids = meet
        for k in range(b, 0, -1):
            keep = index.wave[ids] == k - 1
            seeds[k - 1] = p[keep]
            front = self._distinct(ids[keep])
            runs, p, q, ids = self._gather(front)
            layers[k - 1] = front, runs
        # Toward the start: the kept corners' other-axis positions seed the
        # layer being entered.
        runs, p, q, ids = meet
        for k in range(b, budget):
            keep = index.fwave[ids] == budget - k - 1
            seeds[k] = q[keep]
            front = self._distinct(ids[keep])
            runs, p, q, ids = self._gather(front)
            layers[k + 1] = front, runs
        return layers, seeds

    def _gather(self, front: np.ndarray) -> tuple[np.ndarray, ...]:
        """The points of the ``front`` intervals, their corners, the
        corners' other-axis positions and those positions' intervals
        (with repeats)."""
        index = self.index
        runs = _ranges(front, index.size[front])
        p = runs[index.corner[runs]]
        q = index.other[p]
        return runs, p, q, index.lab[q]

    def _mark(self, marks: np.ndarray, ids: np.ndarray, value: int) -> None:
        """Set the wave array ``marks`` to ``value`` at ``ids``, recorded
        for :meth:`close`."""
        self._waved.append((marks, ids))
        marks[ids] = value

    def _distinct(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` without repeats."""
        slot = self.index.slot
        order = np.arange(ids.size, dtype=np.int32)
        slot[ids] = order
        return ids[slot[ids] == order]

    def at(self, axis: int, cell: int) -> int:
        """The packed cost-to-go of the state at ``cell`` travelling
        along ``axis`` (0 horizontal, 1 vertical), or ``-1`` unswept."""
        other, lab, laid = self.index.mv
        p = other[cell] if axis else cell
        first = lab[p]
        if first < 0:
            return -1
        offset = laid[first]
        if offset == UNLAID:
            return -1
        return self.values[offset + p]

    def close(self) -> None:
        """Reset the index's scratch where this field wrote it."""
        laid = self.index.laid
        for marks, ids in self._waved:
            marks[ids] = UNREACHED
        for ids in self._laid:
            laid[ids] = UNLAID
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
    lead: np.ndarray,
    trail: np.ndarray,
    none: int,
) -> np.ndarray:
    """Min over the seeds ``b`` of each point's interval of
    ``seed_value`` at ``b`` plus the packed cost of the straight run to
    ``b``, for points given as whole intervals in line order: running
    left from ``p`` to ``b`` costs ``lead[p] - lead[b]``, running right
    costs ``trail[b] - trail[p]``.  ``seeds`` are the seed positions.

    A segmented prefix-min and suffix-min do it.  ``lead`` and ``trail``
    carry each interval's offset (ascending, a span apart), which keeps
    each running minimum inside its interval; ``none`` stands in for a
    missing seed and stays above every real candidate, and every
    interval holds a seed."""
    left = none - lead
    left[seeds] = seed_value - lead[seeds]
    np.minimum.accumulate(left, out=left)
    left += lead
    right = none + trail
    right[seeds] = seed_value + trail[seeds]
    right = np.minimum.accumulate(right[::-1])[::-1]
    right -= trail
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
    other, lab, laid = index.mv
    axes = (
        (index.cross_h, view.own_cross_h, False),
        (index.cross_v, view.own_cross_v, True),
    )
    moves = [
        (dx, dy, dx + dy * nx, *axes[0 if moves_h else 1])
        for dx, dy, moves_h in _DIR_STEPS
    ]
    # Per travel direction, the moves a state may probe, in direction
    # order and never a U-turn: ``(direction, turning, *move)``, all of
    # them where the state may turn, else only the straight one.
    ahead = [
        [(ndi, ndi != di, *moves[ndi]) for ndi in range(4) if ndi != _OPPOSITE[di]]
        for di in range(4)
    ]
    straight = [[(di, False, *moves[di])] for di in range(4)]
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
    # corridor, and pushes only states whose f keeps within the start's
    # relaxed bend count ``budget``: an unswept state, off the corridor,
    # would exceed it.  When start-direction or arrival constraints make
    # the optimum bendier than the budget, the heap empties after such a
    # skip before any goal pops: the field widens once to every interval
    # a target reaches and the search restarts.  Expansions spent before
    # the restart stay counted.  Each field is closed before the next
    # opens, and on any exception.
    for corridor in (True, False):
        t_field = time.perf_counter()
        field = Field(
            view, target_dirs, cost_order, (sx, sy) if corridor else None, dir_indices
        )
        field_s += time.perf_counter() - t_field
        try:
            if not corridor:
                counters.inc("route.field_widenings")
            # Without a budget an unswept state has no relaxed completion.
            budget, values = field.budget, field.values
            ceiling = sys.maxsize if budget is None else budget
            skipped = False
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
                        skipped = True
                        continue  # unswept: off the corridor, or no completion
                    f = (v >> s2, (v >> s1) & mask, v & mask)
                best[state] = zero
                parents[state] = None
                if initial_bound is None or f < initial_bound:
                    initial_bound = f
                heappush(heap, (f, 0, counter, zero, state))
            counter = len(dir_indices)

            while heap:
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
                for ndi, turning, dx, dy, step, crosses, own, vertical in (
                    ahead[di] if can_turn else straight[di]
                ):
                    qx, qy = px + dx, py + dy
                    if not (x1 <= qx <= x2 and y1 <= qy <= y2):
                        continue
                    q = cell + step
                    p = other[q] if vertical else q
                    first = lab[p]
                    if first < 0:
                        continue  # a stop of the axis it moves along
                    # :meth:`Field.at`, inline.  A state off the corridor, or
                    # one with more bends in f than the budget, is skipped:
                    # it would pop only after a widening.
                    offset = laid[first]
                    if offset == UNLAID:
                        skipped = True
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
                        v = values[offset + p]
                        f0 = n0 + (v >> s2)
                        if f0 > ceiling:
                            skipped = True
                            continue
                        best[nstate] = ncost
                        parents[nstate] = state
                        f = (f0, n1 + ((v >> s1) & mask), n2 + (v & mask))
                        heappush(heap, (f, depth, counter, ncost, nstate))
                        counter += 1
            if goal_state is not None or not skipped or budget is None:
                break  # found, or the heap emptied: no connection exists
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

    # The path's vertices, from the goal back: the ends, and every state
    # whose travel direction differs from its successor's (the search
    # never turns back, so this is the normalized path).
    path: list[Point] = []
    cursor, heading = goal_state, -1
    while cursor is not None:
        parent = parents[cursor]
        if cursor & 3 != heading or parent is None:
            i, j = divmod(cursor >> 2, nx)
            path.append(Point(x1 + j, y1 + i))
        heading = cursor & 3
        cursor = parent
    path.reverse()
    bends, crossings, length = final_cost
    return RouteResult(path=path, bends=bends, crossings=crossings, length=length)


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
