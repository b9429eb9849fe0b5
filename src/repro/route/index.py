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
``[y - y1, x - x1]`` without a copy.  ``contrib`` records per net that
net's own contribution at every point it uses, merged path by path from
the plane's one record of routed geometry, ``plane.paths``:
``remove_net`` unwinds it, and a :class:`NetView`, the router's
per-connection window, turns it into a few exception sets keyed by cell,
an O(own net) overlay ("all minus own net") on the shared buffers
instead of an O(plane) rebuild.

The index also keeps the paper's line segments (section 5.5): every
free interval of both axes, the maximal stop-free runs of a row or
column that the line expansion sweeps.  They live in *line space*, one
flat position per (point, axis): rows first, row ``i`` point ``j`` at
``i * nx + j`` (its cell), then columns, column ``j`` point ``i`` at
``n + j * ny + i`` with ``n = nx * ny``; ``other`` maps each position to
the same point's position on the other axis, so a cell is
``min(p, other[p])``.  Over that space

* ``lab[p]`` is the first position of ``p``'s interval, or -1 where
  ``p`` is a stop of its axis,
* ``size[first]`` is the interval's length (meaningful only at first
  positions),
* ``corner[p]`` is set where the point is free on both axes and
  carries no wire: a line-expansion wave may bend there.  It is kept at
  both of the point's positions, so ``corner[cell]`` reads it by cell.

The mutation hooks keep them: a hook that flips a horizontal stop (a
point became or stopped being hard, or ``h_block`` crossed zero) marks
its row dirty, a vertical one its column, and ``corner`` is set per
point; the dirty lines are relabelled in one vectorised pass when labels
are next asked for.  The labels always describe one view's stops:
:meth:`PlaneIndex.label_for` relabels the dirty lines, the previous
view's exception lines and the new view's in place, undoes the previous
view's corner fixes and sets the new view's.  A view's exception lines
are the rows and columns through its allow cells and through the cells
only its own net blocks, the only cells where its stops can differ
from the plane's.  Nothing is copied and nothing is undone from a log:
outside a view's exceptions its stops are the plane's.  A running
``crossings`` total replaces a whole-buffer sum per field.

The index also owns the cost-to-go field's scratch arrays (``wave``,
``laid``, ``slot``), sized once per plane like everything above: the
field (:class:`~repro.route.line_expansion.Field`) resets what it wrote
when it closes.  A connection allocates only what scales with the lines
it relabels and the intervals its field lays out.

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
  bounds,
* after :meth:`PlaneIndex.label_for` a view without exceptions,
  ``lab``, ``size`` and ``corner`` equal a labelling of the plane's
  stops from scratch.

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

#: ``wave`` of an interval no target reaches (above every real wave).
UNREACHED = 1 << 30
#: ``laid`` of an interval outside the field's layout.
UNLAID = -(1 << 31)

#: No lines or cells.
_NOTHING = np.empty(0, dtype=np.intp)


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
        "n",
        "hard",
        "h_block",
        "v_block",
        "cross_h",
        "cross_v",
        "occ",
        "contrib",
        "crossings",
        "other",
        "lab",
        "size",
        "corner",
        "_corner",
        "wave",
        "laid",
        "slot",
        "mv",
        "_np",
        "_dirty",
        "_dirty_np",
        "_owner",
        "_patched",
        "_fresh",
    )

    def __init__(self, plane: "Plane") -> None:
        self._plane = weakref.ref(plane)
        bounds = plane.bounds
        self.x1, self.y1 = bounds.x, bounds.y
        self.nx, self.ny = nx, ny = bounds.w + 1, bounds.h + 1
        self.n = cells = nx * ny
        self.hard = bytearray(cells)
        self.h_block = array("i", [0]) * cells
        self.v_block = array("i", [0]) * cells
        self.cross_h = array("i", [0]) * cells
        self.cross_v = array("i", [0]) * cells
        self.occ = array("i", [0]) * cells
        # net -> point -> (h_block, v_block, cross_h, cross_v) contribution
        self.contrib: dict[str, dict[Point, tuple[int, int, int, int]]] = {}
        #: Sum of ``cross_h`` and ``cross_v``.
        self.crossings = 0
        # Line space: the rows' positions are the cells; column ``j``,
        # point ``i`` sits at ``n + j * ny + i``.  The int32 arrays over
        # it share one allocation.
        self.other, self.lab, self.size, self.wave, self.laid, self.slot = (
            np.empty((6, 2 * cells), dtype=np.int32)
        )
        i, j = np.divmod(np.arange(cells, dtype=np.int32), np.int32(nx))
        self.other[:cells] = columns = cells + j * ny + i
        self.other[columns] = np.arange(cells, dtype=np.int32)
        # An empty plane: every line is one interval, every point a corner.
        self.lab[:cells] = i * nx
        self.lab[columns] = cells + j * ny
        del i, j, columns
        self.size[:cells] = nx
        self.size[cells:] = ny
        self._corner = bytearray(b"\x01") * (2 * cells)
        self.corner = np.frombuffer(self._corner, dtype=bool)
        # The cost-to-go field's scratch, reset by the field where it
        # wrote: ``wave`` per interval first position, ``laid`` the
        # interval's offset into the field's layout, ``slot`` for
        # dedupes (written before it is read).
        self.wave[:] = UNREACHED
        self.laid[:] = UNLAID
        #: ``other``, ``lab``, ``laid`` and ``wave`` as memoryviews, which
        #: read one entry as a Python int far faster than numpy does.
        self.mv = tuple(map(memoryview, (self.other, self.lab, self.laid, self.wave)))
        # numpy views of the buffers: hard, h_block, v_block, cross_h,
        # cross_v, occ.
        self._np = tuple(self.grid(b).ravel() for b in (
            self.hard, self.h_block, self.v_block, self.cross_h, self.cross_v, self.occ
        ))
        # Lines whose stops flipped since they were labelled: rows, then
        # columns at ``ny + j``.
        self._dirty = bytearray(ny + nx)
        self._dirty_np = np.frombuffer(self._dirty, dtype=np.uint8)
        # The view whose exceptions the labels carry (held weakly: a view
        # holds its index), its exception lines and corner cells, and
        # whether no hook flipped a stop or a corner since the labels were
        # made its own.
        self._owner = _no_view
        self._patched = _NOTHING, _NOTHING
        self._fresh = True

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
        if self.hard[cell] == value:
            return
        self.hard[cell] = value
        i, j = divmod(cell, self.nx)
        if not self.h_block[cell]:
            self._dirty[i] = 1
        if not self.v_block[cell]:
            self._dirty[self.ny + j] = 1
        if not self.occ[cell]:
            self._set_corner(cell, not value)
        self._fresh = False

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
            if self.occ[cell] == 1 and not self.hard[cell]:
                self._set_corner(cell, 0)
        self._shift(cell, old, new)

    def remove_net(self, net: str) -> None:
        """Unwind every contribution of ``net`` in O(own net), leaving
        the index identical to one rebuilt from scratch off a plane that
        never saw the net."""
        for p, old in self.contrib.pop(net, {}).items():
            cell = self.cell(p)
            if cell is not None:
                self.occ[cell] -= 1
                if not self.occ[cell] and not self.hard[cell]:
                    self._set_corner(cell, 1)
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

    def _set_corner(self, cell: int, value: int) -> None:
        """Set ``corner`` at both positions of ``cell``'s point."""
        i, j = divmod(cell, self.nx)
        corner = self._corner
        corner[cell] = corner[self.n + j * self.ny + i] = value
        self._fresh = False

    def _shift(self, cell: int, old: tuple, new: tuple) -> None:
        """Replace one net's contribution ``old`` at ``cell`` by ``new``;
        a block count crossing zero off a hard point flips a stop."""
        d = new[0] - old[0]
        if d:
            h = self.h_block[cell]
            self.h_block[cell] = h + d
            if (not h or h == -d) and not self.hard[cell]:
                self._dirty[cell // self.nx] = 1
                self._fresh = False
        d = new[1] - old[1]
        if d:
            v = self.v_block[cell]
            self.v_block[cell] = v + d
            if (not v or v == -d) and not self.hard[cell]:
                self._dirty[self.ny + cell % self.nx] = 1
                self._fresh = False
        d = new[2] - old[2]
        if d:
            self.cross_h[cell] += d
            self.crossings += d
        d = new[3] - old[3]
        if d:
            self.cross_v[cell] += d
            self.crossings += d

    # -- labels ------------------------------------------------------------

    def label_for(self, view: "NetView") -> None:
        """Make ``lab``, ``size`` and ``corner`` describe ``view``'s stops
        and bendable points, in place: relabel the dirty lines and the
        previous and new views' exception lines, then swap the previous
        view's corner fixes for the new view's.  A no-op while the labels
        are already ``view``'s and no hook flipped anything since."""
        if self._owner() is view and self._fresh:
            return
        lines, cells = self._patched
        dirty = self._dirty_np
        dirty[lines] = 1
        dirty[view.lines] = 1
        lines = np.flatnonzero(dirty)
        if lines.size:
            self._relabel(lines, view)
        hard, occ, corner = self._np[0], self._np[5], self.corner
        corner[cells] = corner[self.other[cells]] = ~hard[cells] & (occ[cells] == 0)
        # From here on the corners are the new view's to undo.
        self._owner = weakref.ref(view)
        self._patched = view.lines, view.corner_cells
        self._fresh = False
        cells = view.corner_cells
        columns = self.other[cells]
        corner[cells] = corner[columns] = (
            (self.lab[cells] >= 0)
            & (self.lab[columns] >= 0)
            & ((occ[cells] == 0) | view.corner_clear)
        )
        dirty[lines] = 0
        self._fresh = True

    def _relabel(self, lines: np.ndarray, view: "NetView") -> None:
        """Label the free intervals of ``lines`` (rows, then columns at
        ``ny + j``; ascending) under ``view``'s stops."""
        n, nx, ny = self.n, self.nx, self.ny
        hard, h_block, v_block = self._np[:3]
        lines = lines.astype(np.int32)
        split = int(np.searchsorted(lines, ny))
        rows, cols = lines[:split], lines[split:] - ny
        row_cells = (rows[:, None] * nx + np.arange(nx, dtype=np.int32)).ravel()
        col_cells = (cols[:, None] + np.arange(0, n, nx, dtype=np.int32)).ravel()
        stop = np.concatenate((h_block[row_cells], v_block[col_cells])) != 0
        stop |= hard[np.concatenate((row_cells, col_cells))]
        # Positions in line space, ascending: a row's are its cells.
        pos = np.concatenate(
            (row_cells, n + (cols[:, None] * ny + np.arange(ny, dtype=np.int32)).ravel())
        )
        if view.exceptions:
            stop[np.searchsorted(pos, view.exception_pos)] = [
                view.stops_at(cell, vertical) for cell, vertical in view.exceptions
            ]
        free = ~stop
        # A free point is first in its interval after a stop or at the
        # start of its line, last before a stop or at the end of it.
        starts = np.concatenate((
            np.arange(0, row_cells.size, nx),
            np.arange(row_cells.size, pos.size, ny),
        ))
        edge = np.empty(pos.size + 1, dtype=bool)
        edge[1:-1] = stop[:-1]
        edge[starts] = True
        edge[-1] = True
        first = free & edge[:-1]
        edge[1:-1] = stop[1:]
        edge[starts] = True
        last = free & edge[1:]
        labels = np.where(first, pos, np.int32(-1))
        np.maximum.accumulate(labels, out=labels)
        labels[stop] = -1
        self.lab[pos] = labels
        begin = pos[first]
        self.size[begin] = pos[last] - begin + 1

    # -- per-net queries -------------------------------------------------

    def net_points(self, net: str) -> set[Point]:
        """All points ``net`` uses, served from the contribution map in
        O(net size)."""
        return set(self.contrib.get(net, ()))

    def view(self, net: str, allow: frozenset[Point] = frozenset()) -> "NetView":
        return NetView(self, net, allow)


def _no_view() -> None:
    """The labels' owner before any view took them."""


class NetView:
    """One net's window on the plane: the index's buffers, read through
    ``index``, plus the net's own small exception overlay ("all minus
    own net"), keyed by cell.

    The view's stops differ from the plane's only on its exception
    cells: axis by axis, ``exceptions`` lists ``(cell, vertical)`` for
    the allow cells and the cells only this net blocks on that axis,
    ``exception_pos`` their line-space positions and ``lines`` the rows
    and columns through them (in the index's dirty-line numbering).  Its
    bendable points differ from the plane's corners only on
    ``corner_cells``, those cells plus its own points free of foreign
    wires (``corner_clear`` marks the latter).  ``own_crossings`` is the
    sum of its own crossing contributions."""

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
        "own_crossings",
        "self_clear",
        "exceptions",
        "exception_pos",
        "lines",
        "corner_cells",
        "corner_clear",
        "__weakref__",
    )

    def __init__(self, index: PlaneIndex, net: str, allow: frozenset[Point]) -> None:
        x1, y1, nx, ny = index.x1, index.y1, index.nx, index.ny
        self.x1, self.y1, self.nx = x1, y1, nx
        self.x2, self.y2 = x1 + nx - 1, y1 + ny - 1
        self.index = index
        self.net = net
        self.allow = allow
        # In-bounds points exempt from the blocked/claimed stops.
        self.allow_cells = allow_cells = {
            c for c in map(index.cell, allow) if c is not None
        }
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
        self.own_crossings = sum(own_cross_h.values()) + sum(own_cross_v.values())
        # The exception cells per axis, and the lines through them.
        n = index.n
        across, down = allow_cells | unblock_h, allow_cells | unblock_v
        self.exceptions = [(c, False) for c in across] + [(c, True) for c in down]
        self.exception_pos = [*across, *(n + c % nx * ny + c // nx for c in down)]
        self.lines = np.array(
            [*{c // nx for c in across}, *{ny + c % nx for c in down}], dtype=np.intp
        )
        corners = list(across | down | self_clear)
        self.corner_cells = np.array(corners, dtype=np.intp)
        self.corner_clear = np.array([c in self_clear for c in corners], dtype=bool)

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
