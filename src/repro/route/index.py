"""The incremental routing-plane index.

The line-expansion router used to rebuild a flat per-net snapshot of
the whole plane — copying ``blocked | claims`` and re-scanning every
``usage`` point — for *every connection of every net*, making routing
O(nets x plane-size) before a single state was expanded (that rebuild
survives as the reference engine's
:class:`~repro.route.reference.ReferenceSnapshot`).  This module
replaces it with a persistent :class:`PlaneIndex` the
:class:`~repro.route.plane.Plane` maintains incrementally on every
mutation (``block_rect``, ``add_claim``, ``release_claims``,
``add_net_path``).

The index keeps *global* aggregates over all nets, one point-keyed count
map per aggregate, which the router probes directly:

* ``h_block``/``v_block`` — per point, how many nets forbid a wire
  moving horizontally/vertically through it (node points, degenerate
  single-point wires and parallel wire segments all contribute),
* ``cross_h``/``cross_v`` — per point, the total crossover count a
  horizontal/vertical passage would pay over all nets,
* ``occ`` — per point, how many nets use it at all,
* ``contrib`` — per net, that net's own contribution at every point it
  uses, which is what makes a per-connection view an O(own net) overlay
  ("all minus own net") instead of an O(plane) rebuild,

plus one dense grid per aggregate over ``plane.bounds``, indexed
``[y - y1, x - x1]``: ``stop_h``/``stop_v`` (where a horizontal/vertical
sweep stops: ``blocked | claims`` or a positive axis block count),
``occ_grid`` and ``cross_h_grid``/``cross_v_grid``.  The escalated A*
bound sweeps whole intervals of them at once.  The A*'s geometric
lower bound reads per-line views, each a cache read off one grid line,
dropped whenever a cell of its line changes:

* ``sorted_row``/``sorted_col`` — the sorted stop coordinates of a line,
  so the bound finds the first stop ahead of a straight run with a
  bisect,
* ``range_cross_h``/``range_cross_v`` — prefix sums of a line's crossing
  counts, so the bound prices a straight run over ``[a..b]`` with one
  index lookup instead of O(b-a) probes.

Per-line views report only points inside the bounds.  That changes no
search: the router never enters a point outside the bounds, so such a
stop never lies between an in-bounds state and an in-bounds target.

A :class:`NetView` is the router's per-connection window: it references
the global maps (the ``hard`` set of blocked and claimed points is never
copied) plus four small per-net exception sets/dicts computed from the
net's own contribution map.

Invariants (checked by ``tests/test_route_index.py`` against a
rebuilt-from-scratch reference and brute force):

* for every point ``p`` and net ``n``: ``contrib[n][p]`` equals the
  contribution recomputed from ``plane.usage``/``plane.nodes``,
* ``h_block[p] == sum(contrib[n][p].hb)`` with no zero entries (same for
  ``v_block``/``cross_*``; ``occ[p]`` counts the nets with an entry),
* inside the bounds ``stop_h`` holds exactly the points of
  ``blocked | claims | h_block`` (``v_block`` for ``stop_v``), ``occ_grid``
  the keys of ``occ`` and the crossing grids the ``cross_*`` counts;
  points outside the bounds have no cell.

The index holds its plane through a weak reference: the plane owns the
index, and a back-reference would make every plane a reference cycle
that only the cycle collector frees.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.geometry import Orientation, Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .plane import Plane


def _bump(counts: dict[Point, int], p: Point, delta: int) -> int:
    """Add ``delta`` to ``p``'s count, dropping the entry at zero; returns
    the new count."""
    n = counts.get(p, 0) + delta
    if n:
        counts[p] = n
    else:
        del counts[p]
    return n


def _line(grid: np.ndarray, k: int, column: bool) -> np.ndarray:
    """Row ``k`` of ``grid`` (column ``k`` when ``column``); empty for a
    line outside the bounds."""
    lines = grid.T if column else grid
    return lines[k] if 0 <= k < len(lines) else lines[:0].ravel()


class IndexedPointSet(set):
    """A ``set`` of points that notifies the index on every mutation.

    ``Plane.blocked`` is a public field that callers (and tests) mutate
    directly — ``plane.blocked.add(p)`` — so the hook has to live on the
    container itself, not on ``Plane`` methods.
    """

    def __init__(self, index: "PlaneIndex", points: Iterable[Point] = ()) -> None:
        super().__init__()
        self._index = index
        self.update(points)

    def add(self, point) -> None:  # type: ignore[override]
        if point not in self:
            set.add(self, point)
            self._index.blocked_added(point)

    def update(self, *others) -> None:  # type: ignore[override]
        for other in others:
            for point in other:
                self.add(point)

    def __ior__(self, other):  # type: ignore[override]
        self.update(other)
        return self

    def discard(self, point) -> None:  # type: ignore[override]
        if point in self:
            set.discard(self, point)
            self._index.blocked_removed(point)

    def remove(self, point) -> None:  # type: ignore[override]
        if point not in self:
            raise KeyError(point)
        self.discard(point)

    def clear(self) -> None:  # type: ignore[override]
        for point in list(self):
            self.discard(point)


class PlaneIndex:
    """Incremental aggregates of a :class:`Plane`'s obstacle field."""

    __slots__ = (
        "_plane",
        "h_block",
        "v_block",
        "cross_h",
        "cross_v",
        "occ",
        "contrib",
        "_ox",
        "_oy",
        "stop_h",
        "stop_v",
        "occ_grid",
        "cross_h_grid",
        "cross_v_grid",
        "_rows_sorted",
        "_cols_sorted",
        "_cross_rows",
        "_cross_cols",
    )

    def __init__(self, plane: "Plane") -> None:
        self._plane = weakref.ref(plane)
        # point -> number of nets blocking horizontal/vertical entry
        self.h_block: dict[Point, int] = {}
        self.v_block: dict[Point, int] = {}
        # point -> total crossings for horizontal/vertical passage
        self.cross_h: dict[Point, int] = {}
        self.cross_v: dict[Point, int] = {}
        # point -> number of nets using it (any orientation)
        self.occ: dict[Point, int] = {}
        # net -> point -> (h_block, v_block, cross_h, cross_v) contribution
        self.contrib: dict[str, dict[Point, tuple[int, int, int, int]]] = {}
        bounds = plane.bounds
        self._ox, self._oy = bounds.x, bounds.y
        shape = (bounds.h + 1, bounds.w + 1)
        self.stop_h = np.zeros(shape, dtype=bool)
        self.stop_v = np.zeros(shape, dtype=bool)
        self.occ_grid = np.zeros(shape, dtype=bool)
        self.cross_h_grid = np.zeros(shape, dtype=np.int64)
        self.cross_v_grid = np.zeros(shape, dtype=np.int64)
        # Per-line views, keyed by row y / column x: sorted stop
        # coordinates and crossing prefix sums.
        self._rows_sorted: dict[int, list[int]] = {}
        self._cols_sorted: dict[int, list[int]] = {}
        self._cross_rows: dict[int, list[int]] = {}
        self._cross_cols: dict[int, list[int]] = {}

    @property
    def plane(self) -> "Plane":
        return self._plane()

    # -- plane mutation hooks -------------------------------------------

    def blocked_added(self, p: Point) -> None:
        """A blocked/claimed point obstructs movement on both axes."""
        self._stop(p, False, True)
        self._stop(p, True, True)

    def blocked_removed(self, p: Point) -> None:
        self._unstop(p, False)
        self._unstop(p, True)

    claim_added = blocked_added
    claim_removed = blocked_removed

    def net_path_added(self, net: str, points: Iterable[Point]) -> None:
        """Refresh ``net``'s contribution at every covered point of a
        newly registered path (orientations may have grown, vertices may
        have become nodes)."""
        plane = self.plane
        usage = plane.usage
        nodes = plane.nodes.get(net, ())
        horizontal = Orientation.HORIZONTAL
        vertical = Orientation.VERTICAL
        cmap = self.contrib.setdefault(net, {})
        for p in points:
            oris = usage[p][net]
            if p in nodes or not oris:
                new = (1, 1, 0, 0)
            else:
                hb = 1 if horizontal in oris else 0
                vb = 1 if vertical in oris else 0
                new = (hb, vb, vb, hb)
            old = cmap.get(p)
            if old == new:
                continue
            if old is None:
                old = (0, 0, 0, 0)
                if _bump(self.occ, p, 1) == 1:
                    self._set(self.occ_grid, p, True)
            cmap[p] = new
            self._shift(
                p, new[0] - old[0], new[1] - old[1], new[2] - old[2], new[3] - old[3]
            )

    def remove_net(self, net: str) -> None:
        """Unwind every contribution of ``net`` in O(own net), leaving
        the index identical to one rebuilt from scratch off a plane that
        never saw the net."""
        for p, (hb, vb, ch, cv) in self.contrib.pop(net, {}).items():
            self._shift(p, -hb, -vb, -ch, -cv)
            if not _bump(self.occ, p, -1):
                self._set(self.occ_grid, p, False)

    def rebuild(self) -> None:
        """Ingest a pre-populated plane (dataclass construction with
        existing claims/usage; ``blocked`` notifies through its own
        container)."""
        for p in self.plane.claims:
            self.claim_added(p)
        per_net: dict[str, set[Point]] = {}
        for p, nets in self.plane.usage.items():
            for net in nets:
                per_net.setdefault(net, set()).add(p)
        for net, points in per_net.items():
            self.net_path_added(net, points)

    # -- internals ------------------------------------------------------

    def _shift(self, p: Point, dhb: int, dvb: int, dch: int, dcv: int) -> None:
        """Add a change of one net's contribution at ``p`` to the count
        maps and the grids."""
        if dhb:
            n = _bump(self.h_block, p, dhb)
            if n == dhb:  # newly blocked
                self._stop(p, False, True)
            elif not n:
                self._unstop(p, False)
        if dvb:
            n = _bump(self.v_block, p, dvb)
            if n == dvb:
                self._stop(p, True, True)
            elif not n:
                self._unstop(p, True)
        if dch:
            _bump(self.cross_h, p, dch)
            if self._set(self.cross_h_grid, p, dch, add=True):
                self._cross_rows.pop(p.y, None)
        if dcv:
            _bump(self.cross_v, p, dcv)
            if self._set(self.cross_v_grid, p, dcv, add=True):
                self._cross_cols.pop(p.x, None)

    def _set(self, grid: np.ndarray, p: Point, value, add: bool = False) -> bool:
        """Set (or with ``add``, increase) ``p``'s cell; whether it
        changed — points outside the bounds have no cell."""
        i, j = p.y - self._oy, p.x - self._ox
        if not (0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]):
            return False
        if add:
            grid[i, j] += value
        elif grid[i, j] == value:
            return False
        else:
            grid[i, j] = value
        return True

    def _stop(self, p: Point, vertical: bool, value: bool) -> None:
        """Set ``p``'s cell of the vertical/horizontal stop grid, dropping
        its line's cached stop list when the cell changes."""
        if vertical:
            if self._set(self.stop_v, p, value):
                self._cols_sorted.pop(p.x, None)
        elif self._set(self.stop_h, p, value):
            self._rows_sorted.pop(p.y, None)

    def _unstop(self, p: Point, vertical: bool) -> None:
        """Clear ``p``'s stop cell unless another source still blocks
        movement along that axis there."""
        plane = self.plane
        blocks = self.v_block if vertical else self.h_block
        if p not in plane.blocked and p not in plane.claims and p not in blocks:
            self._stop(p, vertical, False)

    # -- per-line views -------------------------------------------------

    def sorted_row(self, y: int) -> list[int]:
        """Sorted x coordinates inside the bounds obstructing horizontal
        movement on row y."""
        lst = self._rows_sorted.get(y)
        if lst is None:
            line = _line(self.stop_h, y - self._oy, False)
            lst = self._rows_sorted[y] = (np.flatnonzero(line) + self._ox).tolist()
        return lst

    def sorted_col(self, x: int) -> list[int]:
        """Sorted y coordinates inside the bounds obstructing vertical
        movement on column x."""
        lst = self._cols_sorted.get(x)
        if lst is None:
            line = _line(self.stop_v, x - self._ox, True)
            lst = self._cols_sorted[x] = (np.flatnonzero(line) + self._oy).tolist()
        return lst

    def range_cross_h(self, y: int, a: int, b: int) -> int:
        """Total crossings a horizontal run entering ``x in [a..b]`` on
        row ``y`` would pay inside the bounds, over all nets (callers
        subtract their own)."""
        sums = self._cross_rows.get(y)
        if sums is None:
            line = _line(self.cross_h_grid, y - self._oy, False)
            sums = self._cross_rows[y] = [0, *np.cumsum(line).tolist()]
        lo, hi = max(a - self._ox, 0), min(b - self._ox + 1, len(sums) - 1)
        return sums[hi] - sums[lo] if lo < hi else 0

    def range_cross_v(self, x: int, a: int, b: int) -> int:
        """Total crossings a vertical run entering ``y in [a..b]`` on
        column ``x`` would pay inside the bounds, over all nets."""
        sums = self._cross_cols.get(x)
        if sums is None:
            line = _line(self.cross_v_grid, x - self._ox, True)
            sums = self._cross_cols[x] = [0, *np.cumsum(line).tolist()]
        lo, hi = max(a - self._oy, 0), min(b - self._oy + 1, len(sums) - 1)
        return sums[hi] - sums[lo] if lo < hi else 0

    # -- per-net queries -------------------------------------------------

    def net_points(self, net: str) -> set[Point]:
        """All points ``net`` uses — served from the contribution map in
        O(net size) instead of a full ``usage`` scan."""
        return set(self.contrib.get(net, ()))

    def view(self, net: str, allow: frozenset[Point] = frozenset()) -> "NetView":
        return NetView(self, net, allow)


class NetView:
    """One net's window on the plane: global maps by reference plus the
    net's own small exception overlay ("all minus own net")."""

    __slots__ = (
        "x1",
        "y1",
        "x2",
        "y2",
        "blocked",
        "claims",
        "allow",
        "blocked_h",
        "blocked_v",
        "cross_h",
        "cross_v",
        "occ",
        "unblock_h",
        "unblock_v",
        "own_cross_h",
        "own_cross_v",
        "self_clear",
        "index",
        "net",
    )

    def __init__(self, index: PlaneIndex, net: str, allow: frozenset[Point]) -> None:
        plane = index.plane
        bounds = plane.bounds
        self.x1, self.y1 = bounds.x, bounds.y
        self.x2, self.y2 = bounds.x2, bounds.y2
        self.blocked = plane.blocked
        self.claims = plane.claims
        self.allow = allow
        self.blocked_h = index.h_block
        self.blocked_v = index.v_block
        self.cross_h = index.cross_h
        self.cross_v = index.cross_v
        self.occ = index.occ
        self.index = index
        self.net = net
        own = index.contrib.get(net)
        if own:
            h_block, v_block, occ = index.h_block, index.v_block, index.occ
            # Points only this net blocks: passable for it.
            self.unblock_h = {
                p for p, c in own.items() if c[0] and h_block[p] == c[0]
            }
            self.unblock_v = {
                p for p, c in own.items() if c[1] and v_block[p] == c[1]
            }
            # Own crossing contributions to subtract from the totals.
            self.own_cross_h = {p: c[2] for p, c in own.items() if c[2]}
            self.own_cross_v = {p: c[3] for p, c in own.items() if c[3]}
            # Own points free of foreign wires: bends stay legal there.
            self.self_clear = {p for p in own if occ[p] == 1}
        else:
            self.unblock_h = self.unblock_v = self.self_clear = frozenset()
            self.own_cross_h = self.own_cross_v = {}

    def foreign_at(self, q: Point) -> bool:
        """Does any *other* net use ``q`` (no bends/terminations there)?"""
        return q in self.occ and q not in self.self_clear

    def _stops(self, q: Point, vertical: bool) -> bool:
        """Must a vertical/horizontal sweep of this net stop at ``q``?"""
        if (q in self.blocked or q in self.claims) and q not in self.allow:
            return True
        if vertical:
            return q in self.blocked_v and q not in self.unblock_v
        return q in self.blocked_h and q not in self.unblock_h

    def grids(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fresh copies of the index's dense grids with this view's
        exemptions patched in: where a horizontal/vertical sweep of this
        net stops (:meth:`_stops`), where it may bend (no foreign wire),
        and the foreign crossings a horizontal/vertical entry pays (the
        index's count less the net's own), each indexed
        ``[y - y1, x - x1]``.

        Outside ``allow`` and the ``unblock`` sets a stop of the view is
        exactly a stop of the index, outside ``self_clear`` a bendable
        point is exactly an unoccupied one, and outside the net's own
        crossing contributions the count is the index's, so only those
        few points need the per-point rules."""
        index = self.index
        stop_h = index.stop_h.copy()
        stop_v = index.stop_v.copy()
        bendable = ~index.occ_grid
        cross_h = index.cross_h_grid.copy()
        cross_v = index.cross_v_grid.copy()
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        for grid, points, vertical in (
            (stop_h, self.allow | self.unblock_h, False),
            (stop_v, self.allow | self.unblock_v, True),
        ):
            for p in points:
                x, y = p
                if x1 <= x <= x2 and y1 <= y <= y2:
                    grid[y - y1, x - x1] = self._stops(p, vertical)
        for x, y in self.self_clear:
            if x1 <= x <= x2 and y1 <= y <= y2:
                bendable[y - y1, x - x1] = True
        for grid, own in ((cross_h, self.own_cross_h), (cross_v, self.own_cross_v)):
            for (x, y), c in own.items():
                if x1 <= x <= x2 and y1 <= y <= y2:
                    grid[y - y1, x - x1] -= c
        return stop_h, stop_v, bendable, cross_h, cross_v
