"""The incremental routing-plane index.

Both line-expansion engines used to rebuild a flat per-net snapshot of
the whole plane — copying ``blocked | claims`` and re-scanning every
``usage`` point — for *every connection of every net*, making routing
O(nets x plane-size) before a single state was expanded.  This module
replaces that rebuild with a persistent :class:`PlaneIndex` the
:class:`~repro.route.plane.Plane` maintains incrementally on every
mutation (``block_rect``, ``add_claim``, ``release_claims``,
``add_net_path``).

The index keeps *global* aggregates over all nets:

* ``h_block``/``v_block`` — per point, how many nets forbid a wire
  moving horizontally/vertically through it (node points, degenerate
  single-point wires and parallel wire segments all contribute),
* ``cross_h``/``cross_v`` — per point, the total crossover count a
  horizontal/vertical passage would pay over all nets,
* ``occ`` — per point, how many nets use it at all (the ``foreign_any``
  set of the old snapshot, before removing the querying net),
* ``contrib`` — per net, that net's own contribution at every point it
  uses, which is what makes a per-connection view an O(own net) overlay
  ("all minus own net") instead of an O(plane) rebuild,
* per-row/per-column sorted obstacle coordinates, so straight sweeps can
  jump to the next obstacle with a bisect instead of probing point by
  point,
* lazily built per-row/per-column *crossing prefix sums*, so the A*'s
  crossover-aware lower bound can ask "how many crossings would a
  straight run over ``[a..b]`` pay" in O(log row) instead of O(b-a),
* dense grids over ``plane.bounds`` mirroring the row/column obstacle
  sets, ``occ_pts`` and the crossing counts (``stop_h``, ``stop_v``,
  ``occ_grid``, ``cross_h_grid``, ``cross_v_grid``), which the escalated
  A* bound sweeps whole intervals of at once.

A :class:`NetView` is the routers' per-connection window: it references
the global maps (the ``hard`` set of blocked and claimed points is never
copied) plus four small per-net exception sets/dicts computed from the
net's own contribution map.

Invariants (checked by ``tests/test_route_index.py`` against a
rebuilt-from-scratch reference):

* for every point ``p`` and net ``n``: ``contrib[n][p]`` equals the
  contribution recomputed from ``plane.usage``/``plane.nodes``,
* ``h_block[p] == sum(contrib[n][p].hb)`` and point sets mirror the
  positive counts (same for ``v_block``/``cross_*``/``occ``),
* every point of ``blocked | claims`` or with a positive axis block
  count appears in its row/column obstacle set, and nothing else does,
* inside ``plane.bounds`` the grids equal those row/column sets,
  ``occ_pts`` and ``cross_h``/``cross_v``; points outside the bounds have
  no cell.

The index holds its plane through a weak reference: the plane owns the
index, and a back-reference would make every plane a reference cycle
that only the cycle collector frees.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

from ..core.geometry import Orientation, Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .plane import Plane

_ZERO = (0, 0, 0, 0)


def _prefix_entry(line: "dict[int, int] | tuple"):
    """Sorted coordinates + running prefix sums for one line's crossing
    counts; ``sums[i]`` is the total over ``coords[:i]``."""
    if not line:
        return [], [0]
    coords = sorted(line)
    sums = [0] * (len(coords) + 1)
    total = 0
    for i, c in enumerate(coords):
        total += line[c]
        sums[i + 1] = total
    return coords, sums


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
        "blocked_h_pts",
        "blocked_v_pts",
        "cross_h",
        "cross_v",
        "occ",
        "occ_pts",
        "contrib",
        "_rows",
        "_cols",
        "_rows_sorted",
        "_cols_sorted",
        "_cross_by_row",
        "_cross_by_col",
        "_cross_rows",
        "_cross_cols",
        "_ox",
        "_oy",
        "stop_h",
        "stop_v",
        "occ_grid",
        "cross_h_grid",
        "cross_v_grid",
    )

    def __init__(self, plane: "Plane") -> None:
        self._plane = weakref.ref(plane)
        # point -> number of nets blocking horizontal/vertical entry
        self.h_block: dict[Point, int] = {}
        self.v_block: dict[Point, int] = {}
        # membership mirrors of the positive counts (hot-loop probes)
        self.blocked_h_pts: set[Point] = set()
        self.blocked_v_pts: set[Point] = set()
        # point -> total crossings for horizontal/vertical passage
        self.cross_h: dict[Point, int] = {}
        self.cross_v: dict[Point, int] = {}
        # point -> number of nets using it (any orientation)
        self.occ: dict[Point, int] = {}
        self.occ_pts: set[Point] = set()
        # net -> point -> (h_block, v_block, cross_h, cross_v) contribution
        self.contrib: dict[str, dict[Point, tuple[int, int, int, int]]] = {}
        # y -> xs blocking horizontal movement / x -> ys blocking vertical
        # movement (hard points block both axes; wire blocks one each).
        self._rows: dict[int, set[int]] = {}
        self._cols: dict[int, set[int]] = {}
        self._rows_sorted: dict[int, list[int]] = {}
        self._cols_sorted: dict[int, list[int]] = {}
        # Eager per-line crossing counts (y -> x -> cross_h, x -> y ->
        # cross_v) plus lazily sorted (coords, prefix sums) caches the
        # range queries bisect; a cache entry drops whenever a crossing
        # count on its line changes.
        self._cross_by_row: dict[int, dict[int, int]] = {}
        self._cross_by_col: dict[int, dict[int, int]] = {}
        self._cross_rows: dict[int, tuple[list[int], list[int]]] = {}
        self._cross_cols: dict[int, tuple[list[int], list[int]]] = {}
        # Dense mirrors over the bounds, indexed [y - y1, x - x1]: the
        # ``_rows``/``_cols`` memberships, ``occ_pts`` and the crossing
        # counts.
        bounds = plane.bounds
        self._ox, self._oy = bounds.x, bounds.y
        shape = (bounds.h + 1, bounds.w + 1)
        self.stop_h = np.zeros(shape, dtype=bool)
        self.stop_v = np.zeros(shape, dtype=bool)
        self.occ_grid = np.zeros(shape, dtype=bool)
        self.cross_h_grid = np.zeros(shape, dtype=np.int64)
        self.cross_v_grid = np.zeros(shape, dtype=np.int64)

    @property
    def plane(self) -> "Plane":
        return self._plane()

    # -- plane mutation hooks -------------------------------------------

    def blocked_added(self, p: Point) -> None:
        self._static_add(p)

    def blocked_removed(self, p: Point) -> None:
        self._static_remove(p)

    def claim_added(self, p: Point) -> None:
        self._static_add(p)

    def claim_removed(self, p: Point) -> None:
        self._static_remove(p)

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
            self._apply(net, cmap, p, new)

    def remove_net(self, net: str) -> None:
        """Unwind every contribution of ``net`` in O(own net), leaving
        the index identical to one rebuilt from scratch off a plane that
        never saw the net."""
        cmap = self.contrib.pop(net, None)
        if not cmap:
            return
        for p, old in cmap.items():
            self._apply_delta(p, old)
            n = self.occ[p] - 1
            if n:
                self.occ[p] = n
            else:
                del self.occ[p]
                self.occ_pts.discard(p)
                self._set(self.occ_grid, p, False)

    def _apply_delta(self, p: Point, old: tuple[int, int, int, int]) -> None:
        """Subtract a contribution tuple from the per-point aggregates."""
        dhb = -old[0]
        if dhb:
            n = self.h_block.get(p, 0) + dhb
            if n:
                self.h_block[p] = n
            else:
                del self.h_block[p]
                self.blocked_h_pts.discard(p)
                self._row_maybe_remove(p)
        dvb = -old[1]
        if dvb:
            n = self.v_block.get(p, 0) + dvb
            if n:
                self.v_block[p] = n
            else:
                del self.v_block[p]
                self.blocked_v_pts.discard(p)
                self._col_maybe_remove(p)
        if old[2]:
            self._cross_h_change(p, -old[2])
        if old[3]:
            self._cross_v_change(p, -old[3])

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

    def _apply(
        self,
        net: str,
        cmap: dict[Point, tuple[int, int, int, int]],
        p: Point,
        new: tuple[int, int, int, int],
    ) -> None:
        old = cmap.get(p)
        if old == new:
            return
        if old is None:
            old = _ZERO
            n = self.occ.get(p, 0) + 1
            self.occ[p] = n
            if n == 1:
                self.occ_pts.add(p)
                self._set(self.occ_grid, p, True)
        cmap[p] = new
        dhb = new[0] - old[0]
        if dhb:
            n = self.h_block.get(p, 0) + dhb
            if n:
                self.h_block[p] = n
            else:
                del self.h_block[p]
            if n == dhb and dhb > 0:  # 0 -> positive
                self.blocked_h_pts.add(p)
                self._row_add(p)
            elif not n:
                self.blocked_h_pts.discard(p)
                self._row_maybe_remove(p)
        dvb = new[1] - old[1]
        if dvb:
            n = self.v_block.get(p, 0) + dvb
            if n:
                self.v_block[p] = n
            else:
                del self.v_block[p]
            if n == dvb and dvb > 0:
                self.blocked_v_pts.add(p)
                self._col_add(p)
            elif not n:
                self.blocked_v_pts.discard(p)
                self._col_maybe_remove(p)
        dch = new[2] - old[2]
        if dch:
            self._cross_h_change(p, dch)
        dcv = new[3] - old[3]
        if dcv:
            self._cross_v_change(p, dcv)

    def _cross_h_change(self, p: Point, delta: int) -> None:
        n = self.cross_h.get(p, 0) + delta
        row = self._cross_by_row.setdefault(p.y, {})
        if n:
            self.cross_h[p] = n
            row[p.x] = n
        else:
            del self.cross_h[p]
            del row[p.x]
            if not row:
                del self._cross_by_row[p.y]
        self._cross_rows.pop(p.y, None)
        self._bump(self.cross_h_grid, p, delta)

    def _cross_v_change(self, p: Point, delta: int) -> None:
        n = self.cross_v.get(p, 0) + delta
        col = self._cross_by_col.setdefault(p.x, {})
        if n:
            self.cross_v[p] = n
            col[p.y] = n
        else:
            del self.cross_v[p]
            del col[p.y]
            if not col:
                del self._cross_by_col[p.x]
        self._cross_cols.pop(p.x, None)
        self._bump(self.cross_v_grid, p, delta)

    def _static_add(self, p: Point) -> None:
        """A blocked/claimed point obstructs movement on both axes."""
        self._row_add(p)
        self._col_add(p)

    def _static_remove(self, p: Point) -> None:
        self._row_maybe_remove(p)
        self._col_maybe_remove(p)

    def _set(self, grid: np.ndarray, p: Point, value: bool) -> None:
        i, j = p.y - self._oy, p.x - self._ox
        if 0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]:
            grid[i, j] = value

    def _bump(self, grid: np.ndarray, p: Point, delta: int) -> None:
        i, j = p.y - self._oy, p.x - self._ox
        if 0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]:
            grid[i, j] += delta

    def _row_add(self, p: Point) -> None:
        row = self._rows.get(p.y)
        if row is None:
            row = self._rows[p.y] = set()
        if p.x not in row:
            row.add(p.x)
            self._rows_sorted.pop(p.y, None)
            self._set(self.stop_h, p, True)

    def _col_add(self, p: Point) -> None:
        col = self._cols.get(p.x)
        if col is None:
            col = self._cols[p.x] = set()
        if p.y not in col:
            col.add(p.y)
            self._cols_sorted.pop(p.x, None)
            self._set(self.stop_v, p, True)

    def _row_maybe_remove(self, p: Point) -> None:
        """Drop ``p`` from its row unless another source still blocks
        horizontal movement there."""
        plane = self.plane
        if p in plane.blocked or p in plane.claims or p in self.blocked_h_pts:
            return
        row = self._rows.get(p.y)
        if row and p.x in row:
            row.discard(p.x)
            if not row:
                del self._rows[p.y]
            self._rows_sorted.pop(p.y, None)
            self._set(self.stop_h, p, False)

    def _col_maybe_remove(self, p: Point) -> None:
        plane = self.plane
        if p in plane.blocked or p in plane.claims or p in self.blocked_v_pts:
            return
        col = self._cols.get(p.x)
        if col and p.y in col:
            col.discard(p.y)
            if not col:
                del self._cols[p.x]
            self._cols_sorted.pop(p.x, None)
            self._set(self.stop_v, p, False)

    def sorted_row(self, y: int) -> list[int]:
        """Sorted x coordinates obstructing horizontal movement on row y."""
        lst = self._rows_sorted.get(y)
        if lst is None:
            lst = self._rows_sorted[y] = sorted(self._rows.get(y, ()))
        return lst

    def sorted_col(self, x: int) -> list[int]:
        """Sorted y coordinates obstructing vertical movement on column x."""
        lst = self._cols_sorted.get(x)
        if lst is None:
            lst = self._cols_sorted[x] = sorted(self._cols.get(x, ()))
        return lst

    # -- crossing range sums (the A*'s crossover-aware bound) -----------

    def _cross_row(self, y: int) -> tuple[list[int], list[int]]:
        entry = self._cross_rows.get(y)
        if entry is None:
            entry = self._cross_rows[y] = _prefix_entry(
                self._cross_by_row.get(y, ())
            )
        return entry

    def _cross_col(self, x: int) -> tuple[list[int], list[int]]:
        entry = self._cross_cols.get(x)
        if entry is None:
            entry = self._cross_cols[x] = _prefix_entry(
                self._cross_by_col.get(x, ())
            )
        return entry

    def range_cross_h(self, y: int, a: int, b: int) -> int:
        """Total crossings a horizontal run entering ``x in [a..b]`` on
        row ``y`` would pay, over all nets (callers subtract their own)."""
        if a > b:
            return 0
        coords, sums = self._cross_row(y)
        if not coords:
            return 0
        lo = bisect_left(coords, a)
        hi = bisect_right(coords, b)
        return sums[hi] - sums[lo]

    def range_cross_v(self, x: int, a: int, b: int) -> int:
        """Total crossings a vertical run entering ``y in [a..b]`` on
        column ``x`` would pay, over all nets."""
        if a > b:
            return 0
        coords, sums = self._cross_col(x)
        if not coords:
            return 0
        lo = bisect_left(coords, a)
        hi = bisect_right(coords, b)
        return sums[hi] - sums[lo]

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
        "occ_pts",
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
        self.blocked_h = index.blocked_h_pts
        self.blocked_v = index.blocked_v_pts
        self.cross_h = index.cross_h
        self.cross_v = index.cross_v
        self.occ_pts = index.occ_pts
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

    # -- point queries (the routers inline the sets; these are for the
    # -- interval engine and tests) -------------------------------------

    def hard_at(self, q: Point) -> bool:
        return (q in self.blocked or q in self.claims) and q not in self.allow

    def entry_blocked(self, q: Point, horizontal: bool) -> bool:
        """Would a wire of this net moving horizontally/vertically be
        forbidden to enter ``q`` by foreign wires?"""
        if horizontal:
            return q in self.blocked_h and q not in self.unblock_h
        return q in self.blocked_v and q not in self.unblock_v

    def crossings_at(self, q: Point, horizontal: bool) -> int:
        total = (self.cross_h if horizontal else self.cross_v).get(q, 0)
        if total:
            total -= (self.own_cross_h if horizontal else self.own_cross_v).get(
                q, 0
            )
        return total

    def foreign_at(self, q: Point) -> bool:
        """Does any *other* net use ``q`` (no bends/terminations there)?"""
        return q in self.occ_pts and q not in self.self_clear

    # -- straight-run jumps ---------------------------------------------

    def run_stop(self, vertical: bool, line: int, start: int, step: int) -> int | None:
        """First coordinate at or beyond ``start + step`` where a sweep of
        this net along column ``x=line`` (``vertical``) or row ``y=line``
        must stop, or ``None`` when it runs to the plane border.

        Uses the index's sorted per-row/column obstacle coordinates and
        skips entries this net is exempt from (its own wire, its
        ``allow`` terminals).
        """
        coords = (
            self.index.sorted_col(line) if vertical else self.index.sorted_row(line)
        )
        if not coords:
            return None
        if step > 0:
            i = bisect_left(coords, start + 1)
            while i < len(coords):
                c = coords[i]
                q = Point(line, c) if vertical else Point(c, line)
                if self._stops(q, vertical):
                    return c
                i += 1
            return None
        i = bisect_right(coords, start - 1) - 1
        while i >= 0:
            c = coords[i]
            q = Point(line, c) if vertical else Point(c, line)
            if self._stops(q, vertical):
                return c
            i -= 1
        return None

    def _stops(self, q: Point, vertical: bool) -> bool:
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
        and the foreign crossings a horizontal/vertical entry pays
        (:meth:`crossings_at`), each indexed ``[y - y1, x - x1]``.

        Outside ``allow`` and the ``unblock`` sets a stop of the view is
        exactly an obstacle of the index, outside ``self_clear`` a
        bendable point is exactly an unoccupied one, and outside the
        net's own crossing contributions the count is the index's, so
        only those few points need the per-point rules."""
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
