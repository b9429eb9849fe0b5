"""The incremental routing-plane index.

The line-expansion router used to rebuild a flat per-net snapshot of
the whole plane for *every connection of every net*, making routing
O(nets x plane-size) before a single state was expanded (that rebuild
survives as the reference engine's
:class:`~repro.route.reference.ReferenceSnapshot`).  Instead the
:class:`~repro.route.plane.Plane` keeps a :class:`PlaneIndex` up to date
on every mutation (``block_rect``, ``add_claim``, ``release_claims``,
``add_net_path``).

The index holds each *global* aggregate over all nets once, in one flat
buffer over ``plane.bounds``.  The point ``(x, y)`` has the cell
``(y - y1) * nx + (x - x1)``, where ``(x1, y1)`` is the bounds' lower
left corner and ``nx`` the number of points in a row:

* ``hard`` (a ``bytearray``) — 1 where the point is blocked or claimed,
* ``h_block``/``v_block`` (``array("i")``) — how many nets forbid a wire
  moving horizontally/vertically through the point (node points,
  degenerate single-point wires and parallel wire segments all
  contribute),
* ``cross_h``/``cross_v`` — the total crossover count a
  horizontal/vertical passage of the point pays over all nets,
* ``occ`` — how many nets use the point at all.

The router reads them per cell from Python, and
:meth:`PlaneIndex.grid` views a whole buffer as a numpy array indexed
``[y - y1, x - x1]`` without a copy, which the A*'s cost-to-go field
sweeps.  ``contrib`` records per net that net's own contribution at
every point it uses, merged path by path from the plane's one record of
routed geometry, ``plane.paths``: ``remove_net`` unwinds it, and a
:class:`NetView`, the router's per-connection window, turns it into a
few exception sets keyed by cell, an O(own net) overlay ("all minus own
net") on the shared buffers instead of an O(plane) rebuild.

Outside the bounds there is no cell.  ``contrib`` still records a net's
points there, so ``net_points`` and ``remove_net`` see the whole net,
but no buffer counts them.  The router never enters such a point: a
view answers every stop query there with ``True`` (the plane border
stops every sweep) and ``foreign_at`` with ``False``, and
:func:`~repro.route.line_expansion.route_connection` refuses a start
there.

Invariants (checked by ``assert_index_matches_rebuild`` in
``tests/conftest.py`` against an index rebuilt from scratch and sums
recomputed from ``contrib``):

* ``contrib[n][p]`` equals net ``n``'s contribution at ``p`` recomputed
  from :func:`~repro.core.geometry.net_geometry` of ``plane.paths[n]``:
  ``(1, 1, 0, 0)`` at a node, else the axis flags of the wire there,
  ``(h, v, v, h)``,
* each cell of ``h_block``, ``v_block``, ``cross_h`` and ``cross_v`` is
  the sum of the ``contrib`` entries at its point, and ``occ`` counts
  them,
* ``hard`` is 1 exactly at the points of ``blocked | claims`` inside the
  bounds.

The index holds its plane through a weak reference: the plane owns the
index, and a back-reference would make every plane a reference cycle
that only the cycle collector frees.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import MutableSet
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..core.geometry import Point, path_points

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .plane import Plane


# A net's contribution where it has no wire, and at one of its nodes,
# which blocks both axes and is never crossed.
_FREE = (0, 0, 0, 0)
_NODE = (1, 1, 0, 0)


class IndexedPointSet(MutableSet):
    """A set of points that notifies the index on every mutation.

    ``Plane.blocked`` is a public field that callers (and tests) mutate
    directly — ``plane.blocked.add(p)`` — so the hook has to live on the
    container itself, not on ``Plane`` methods.  Every mutation goes
    through :meth:`add` or :meth:`discard`: the ``MutableSet`` mixins
    build ``-=``, ``&=``, ``^=``, ``pop``, ``remove`` and ``clear`` on
    them, and the in-place methods of ``set`` other than ``update`` do
    not exist here.  Operators that make a new set (``|``, ``-``, ...)
    return a plain ``set``.
    """

    __slots__ = ("_index", "_points")

    def __init__(self, index: "PlaneIndex", points: Iterable[Point] = ()) -> None:
        self._index = index
        self._points: set[Point] = set()
        self.update(points)

    @classmethod
    def _from_iterable(cls, points: Iterable[Point]) -> set[Point]:
        return set(points)

    def __contains__(self, point: object) -> bool:
        return point in self._points

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._points!r})"

    def add(self, point: Point) -> None:
        if point not in self._points:
            self._points.add(point)
            self._index.hard_changed(point, True)

    def discard(self, point: Point) -> None:
        if point in self._points:
            self._points.remove(point)
            self._index.hard_changed(point, False)

    def update(self, *others: Iterable[Point]) -> None:
        for other in others:
            for point in other:
                self.add(point)


class PlaneIndex:
    """Incremental aggregates of a :class:`Plane`'s obstacle field."""

    __slots__ = (
        "_plane",
        "x1",
        "y1",
        "nx",
        "ny",
        "hard",
        "h_block",
        "v_block",
        "cross_h",
        "cross_v",
        "occ",
        "contrib",
    )

    def __init__(self, plane: "Plane") -> None:
        self._plane = weakref.ref(plane)
        bounds = plane.bounds
        self.x1, self.y1 = bounds.x, bounds.y
        self.nx, self.ny = bounds.w + 1, bounds.h + 1
        cells = self.nx * self.ny
        self.hard = bytearray(cells)
        self.h_block = array("i", [0]) * cells
        self.v_block = array("i", [0]) * cells
        self.cross_h = array("i", [0]) * cells
        self.cross_v = array("i", [0]) * cells
        self.occ = array("i", [0]) * cells
        # net -> point -> (h_block, v_block, cross_h, cross_v) contribution
        self.contrib: dict[str, dict[Point, tuple[int, int, int, int]]] = {}

    @property
    def plane(self) -> "Plane":
        return self._plane()

    def cell(self, p: Point) -> int | None:
        """``p``'s cell, or ``None`` outside the bounds."""
        i, j = p[1] - self.y1, p[0] - self.x1
        if 0 <= i < self.ny and 0 <= j < self.nx:
            return i * self.nx + j
        return None

    def grid(self, buffer: bytearray | array) -> np.ndarray:
        """One of the buffers as a numpy array indexed ``[y - y1, x - x1]``,
        without a copy (``hard`` as booleans)."""
        dtype = bool if isinstance(buffer, bytearray) else np.intc
        return np.frombuffer(buffer, dtype).reshape(self.ny, self.nx)

    # -- plane mutation hooks -------------------------------------------

    def hard_changed(self, p: Point, value: bool) -> None:
        """``p`` became blocked or claimed (``value``), or stopped being
        one of them: it stays hard while the other still holds it.  A
        hard point obstructs movement on both axes."""
        cell = self.cell(p)
        if cell is None:
            return
        if not value:
            plane = self.plane
            value = p in plane.blocked or p in plane.claims
        self.hard[cell] = value

    def net_path_added(self, net: str, path: Sequence[Point]) -> None:
        """Merge a newly committed normalized path into ``net``'s
        contribution: a vertex is a node, ``(1, 1, 0, 0)``, and stays
        one; at every other covered point the path's axis flag is ORed
        into what the net already had there."""
        cmap = self.contrib.setdefault(net, {})
        for p in path:
            self._merge(cmap, p, _NODE)
        for a, b in zip(path, path[1:]):
            h, v = (1, 0) if a.y == b.y else (0, 1)
            for p in path_points((a, b)):
                old = cmap.get(p, _FREE)
                if old != _NODE:
                    hb, vb = old[0] | h, old[1] | v
                    self._merge(cmap, p, (hb, vb, vb, hb))

    def _merge(self, cmap: dict, p: Point, new: tuple) -> None:
        """Set one net's contribution at ``p`` to ``new``."""
        old = cmap.get(p)
        if old == new:
            return
        cmap[p] = new
        cell = self.cell(p)
        if cell is None:
            return
        if old is None:
            old = _FREE
            self.occ[cell] += 1
        self._shift(cell, old, new)

    def remove_net(self, net: str) -> None:
        """Unwind every contribution of ``net`` in O(own net), leaving
        the index identical to one rebuilt from scratch off a plane that
        never saw the net."""
        for p, old in self.contrib.pop(net, {}).items():
            cell = self.cell(p)
            if cell is not None:
                self.occ[cell] -= 1
                self._shift(cell, old, _FREE)

    def rebuild(self) -> None:
        """Ingest a pre-populated plane (dataclass construction with
        existing claims or paths; ``blocked`` notifies through its own
        container)."""
        plane = self.plane
        for p in plane.claims:
            self.hard_changed(p, True)
        for net, paths in plane.paths.items():
            for path in paths:
                self.net_path_added(net, path)

    def _shift(self, cell: int, old: tuple, new: tuple) -> None:
        """Replace one net's contribution ``old`` at ``cell`` by ``new``."""
        self.h_block[cell] += new[0] - old[0]
        self.v_block[cell] += new[1] - old[1]
        self.cross_h[cell] += new[2] - old[2]
        self.cross_v[cell] += new[3] - old[3]

    # -- per-net queries -------------------------------------------------

    def net_points(self, net: str) -> set[Point]:
        """All points ``net`` uses, served from the contribution map in
        O(net size)."""
        return set(self.contrib.get(net, ()))

    def view(self, net: str, allow: frozenset[Point] = frozenset()) -> "NetView":
        return NetView(self, net, allow)


class NetView:
    """One net's window on the plane: the index's buffers, read through
    ``index``, plus the net's own small exception overlay ("all minus
    own net"), keyed by cell."""

    __slots__ = (
        "x1",
        "y1",
        "x2",
        "y2",
        "nx",
        "index",
        "net",
        "allow",
        "allow_cells",
        "unblock_h",
        "unblock_v",
        "own_cross_h",
        "own_cross_v",
        "self_clear",
    )

    def __init__(self, index: PlaneIndex, net: str, allow: frozenset[Point]) -> None:
        x1, y1, nx, ny = index.x1, index.y1, index.nx, index.ny
        self.x1, self.y1, self.nx = x1, y1, nx
        self.x2, self.y2 = x1 + nx - 1, y1 + ny - 1
        self.index = index
        self.net = net
        self.allow = allow
        # In-bounds points exempt from the blocked/claimed stops.
        self.allow_cells = {c for c in map(index.cell, allow) if c is not None}
        # Points only this net blocks: passable for it.
        self.unblock_h = unblock_h = set()
        self.unblock_v = unblock_v = set()
        # Own crossing contributions to subtract from the totals.
        self.own_cross_h = own_cross_h = {}
        self.own_cross_v = own_cross_v = {}
        # Own points free of foreign wires: bends stay legal there.
        self.self_clear = self_clear = set()
        h_block, v_block, occ = index.h_block, index.v_block, index.occ
        for (x, y), (hb, vb, ch, cv) in index.contrib.get(net, {}).items():
            i, j = y - y1, x - x1
            if not (0 <= i < ny and 0 <= j < nx):
                continue
            c = i * nx + j
            if hb and h_block[c] == hb:
                unblock_h.add(c)
            if vb and v_block[c] == vb:
                unblock_v.add(c)
            if ch:
                own_cross_h[c] = ch
            if cv:
                own_cross_v[c] = cv
            if occ[c] == 1:
                self_clear.add(c)

    def foreign_at(self, q: Point) -> bool:
        """Does any *other* net use ``q`` (no bends/terminations there)?"""
        cell = self.index.cell(q)
        return cell is not None and self.index.occ[cell] != 0 and cell not in self.self_clear

    def _stops(self, q: Point, vertical: bool) -> bool:
        """Must a vertical/horizontal sweep of this net stop at ``q``?"""
        cell = self.index.cell(q)
        return cell is None or self.stops_at(cell, vertical)

    def stops_at(self, cell: int, vertical: bool) -> bool:
        """:meth:`_stops` at an in-bounds cell."""
        index = self.index
        if index.hard[cell] and cell not in self.allow_cells:
            return True
        if vertical:
            return index.v_block[cell] != 0 and cell not in self.unblock_v
        return index.h_block[cell] != 0 and cell not in self.unblock_h

    def grids(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fresh grids, indexed ``[y - y1, x - x1]``: where a
        horizontal/vertical sweep of this net stops (:meth:`_stops`),
        where it may bend (no foreign wire), and the foreign crossings a
        horizontal/vertical entry pays (as int64).

        They are built from the buffers — a stop is a hard point or a
        positive axis block count, a bendable point an unoccupied one —
        and then only the view's exception cells are patched in."""
        index = self.index
        hard = index.grid(index.hard)
        stop_h = hard | (index.grid(index.h_block) != 0)
        stop_v = hard | (index.grid(index.v_block) != 0)
        bendable = index.grid(index.occ) == 0
        cross_h = index.grid(index.cross_h).astype(np.int64)
        cross_v = index.grid(index.cross_v).astype(np.int64)
        for grid, cells, vertical in (
            (stop_h.ravel(), self.allow_cells | self.unblock_h, False),
            (stop_v.ravel(), self.allow_cells | self.unblock_v, True),
        ):
            for c in cells:
                grid[c] = self.stops_at(c, vertical)
        bendable.ravel()[list(self.self_clear)] = True
        for grid, own in ((cross_h.ravel(), self.own_cross_h), (cross_v.ravel(), self.own_cross_v)):
            for c, n in own.items():
                grid[c] -= n
        return stop_h, stop_v, bendable, cross_h, cross_v
