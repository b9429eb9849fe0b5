"""Tests for the incremental routing-plane index.

Two layers of evidence:

* structural — after any sequence of plane mutations the incrementally
  maintained :class:`~repro.route.index.PlaneIndex` equals an index
  rebuilt from scratch off the same plane, and a
  :class:`~repro.route.index.NetView`'s stops, bendable points and
  crossing counts — per point and as the free intervals it relabels —
  equal the pre-index :class:`~repro.route.reference.ReferenceSnapshot`,
* behavioural — the indexed A* returns the same optimum cost tuple
  (bends, crossings, length) as the snapshot-rebuilding reference
  Dijkstra on randomized scenes, under both tie-break orders, also when
  constraints make the cost-to-go field widen, and that field equals a
  per-state Dijkstra on the U-turn relaxation: at every state without a
  start, on the start's corridor with one.
"""

import collections
import copy
import heapq
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.geometry import Direction, Point, Rect, net_geometry
from repro.obs import counters
from repro.place.pablo import PabloOptions, place_network
from repro.route import line_expansion
from repro.route.eureka import RouterOptions, route_diagram
from repro.route.index import UNLAID, UNREACHED
from repro.route.line_expansion import (
    CostOrder,
    SearchStats,
    cost_to_go,
    route_connection,
)
from repro.route.plane import Plane
from repro.route.reference import ReferenceSnapshot, route_connection_reference
from repro.workloads import example1_string, random_network

from .conftest import INDEX_BUFFERS, assert_index_matches_rebuild, assert_labels_match


def _stop_grids(view) -> tuple[np.ndarray, np.ndarray]:
    """Where a horizontal / vertical sweep of ``view``'s net stops, as
    grids indexed ``[y - y1, x - x1]``, read off the labels the view
    makes its own."""
    index = view.index
    index.label_for(view)
    n = index.n
    stop_h = (index.lab[:n] < 0).reshape(index.ny, index.nx)
    stop_v = (index.lab[n:] < 0).reshape(index.nx, index.ny).T
    return stop_h, stop_v


def assert_view_matches_snapshot(plane: Plane, net: str, allow=frozenset()) -> None:
    """The O(own net) overlay view stops, bends and counts crossings
    exactly like the rebuilt flat snapshot of the pre-index router: per
    point, and on every in-bounds cell of the labels it makes its own."""
    snap = ReferenceSnapshot(plane, net, allow)
    view = plane.index.view(net, allow)
    stops_h, stops_v = snap.hard | snap.blocked_h, snap.hard | snap.blocked_v
    points = (
        set(plane.blocked)
        | set(plane.claims)
        | {q for paths in plane.paths.values() for q in net_geometry(paths)[0]}
        | {Point(1, 1), Point(5, 5)}
    )
    for q in points:
        assert view._stops(q, False) == (q in stops_h), q
        assert view._stops(q, True) == (q in stops_v), q
        assert view.foreign_at(q) == (q in snap.foreign_any), q
    stop_h, stop_v = _stop_grids(view)
    index = plane.index
    b = plane.bounds
    for x in range(b.x, b.x2 + 1):
        for y in range(b.y, b.y2 + 1):
            q, cell = Point(x, y), index.cell(Point(x, y))
            assert stop_h[y - b.y, x - b.x] == (q in stops_h), q
            assert stop_v[y - b.y, x - b.x] == (q in stops_v), q
            corner = q not in stops_h and q not in stops_v and q not in snap.foreign_any
            assert index.corner[cell] == index.corner[index.other[cell]] == corner, q
            cross_h = index.cross_h[cell] - view.own_cross_h.get(cell, 0)
            cross_v = index.cross_v[cell] - view.own_cross_v.get(cell, 0)
            assert cross_h == snap.cross_h.get(q, 0), q
            assert cross_v == snap.cross_v.get(q, 0), q


class TestIncrementalConsistency:
    def test_block_claim_path_release_sequence(self):
        p = Plane(bounds=Rect(0, 0, 20, 20))
        p.block_rect(Rect(3, 3, 2, 2))
        assert_index_matches_rebuild(p)
        assert p.add_claim(Point(10, 10), "owner-a")
        assert p.add_claim(Point(11, 10), "owner-b")
        assert_index_matches_rebuild(p)
        p.add_net_path("n1", [Point(0, 8), Point(15, 8)])
        p.add_net_path("n2", [Point(7, 0), Point(7, 8), Point(9, 8)])
        assert_index_matches_rebuild(p)
        assert p.release_claims(["owner-a"]) == 1
        assert_index_matches_rebuild(p)
        # A second path of the same net turns (7, 8) into a branch point.
        p.add_net_path("n2", [Point(7, 8), Point(7, 12)])
        assert_index_matches_rebuild(p)
        assert p.release_all_claims() == 1
        assert not p.claims
        assert_index_matches_rebuild(p)

    def test_direct_blocked_mutation_notifies_index(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.blocked.add(Point(4, 4))
        p.blocked |= {Point(4, 5), Point(4, 6)}
        p.blocked.update([Point(5, 5)])
        p.blocked.add(Point(12, 4))  # outside the bounds: no grid cell
        assert_index_matches_rebuild(p)
        hard = p.index.grid(p.index.hard)
        assert hard[4].nonzero()[0].tolist() == [4]  # (12, 4) has no cell
        assert hard[5, 4]
        p.blocked.discard(Point(4, 5))
        assert_index_matches_rebuild(p)
        assert not hard[5, 4]
        p.blocked.clear()
        assert not p.blocked
        assert_index_matches_rebuild(p)
        assert not hard.any()

    def test_set_operators_notify_index(self):
        # Opening a wall with ``-=`` must reach the index: the hard buffer
        # and a search under the cost-to-go field over the stop grids
        # both see the gap.
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.block_rect(Rect(5, 0, 0, 10))
        p.blocked -= {Point(5, 5)}
        assert Point(5, 5) not in p.blocked
        assert not p.index.hard[p.index.cell(Point(5, 5))]
        assert_index_matches_rebuild(p)
        for router in (route_connection, route_connection_reference):
            r = router(p, "mine", Point(0, 5), list(Direction), [Point(10, 5)])
            assert r is not None and (r.bends, r.crossings, r.length) == (0, 0, 10)
        # ``&=``, ``^=`` and ``pop`` go through the index too; the set's
        # in-place methods that would bypass it do not exist.
        p.blocked &= {Point(5, y) for y in range(4, 11)}
        p.blocked ^= {Point(5, 6), Point(2, 2)}
        popped = p.blocked.pop()
        assert popped not in p.blocked
        assert_index_matches_rebuild(p)
        for name in ("difference_update", "intersection_update", "symmetric_difference_update"):
            assert not hasattr(p.blocked, name), name
        assert isinstance(p.blocked | {Point(0, 0)}, set)

    def test_claim_release_keeps_wire_obstacles(self):
        # A claim and a wire share nothing; releasing a claim on a row
        # that also holds a wire-blocked point must keep the wire's entry.
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("w", [Point(2, 5), Point(6, 5)])  # blocks h on row 5
        assert p.add_claim(Point(8, 5), "c")
        assert p.release_claims(["c"]) == 1
        stop_h = _stop_grids(p.index.view("mine"))[0]
        assert stop_h[5].nonzero()[0].tolist() == [2, 3, 4, 5, 6]
        assert_index_matches_rebuild(p)
        # Unblocking a claimed point keeps the claim's stop.
        assert p.add_claim(Point(8, 3), "d")
        p.blocked.add(Point(8, 3))
        p.blocked.discard(Point(8, 3))
        stop_h, stop_v = _stop_grids(p.index.view("mine"))
        assert stop_h[3].nonzero()[0].tolist() == [8]
        assert stop_v[:, 8].nonzero()[0].tolist() == [3]
        assert_index_matches_rebuild(p)

    def test_stops_at_and_past_the_border(self):
        # Stops and crossings on the last row and column, a wire running
        # out of the bounds and obstacles past them: the buffers hold
        # exactly the part inside the bounds.
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.blocked |= {Point(0, 0), Point(10, 10), Point(-1, 4), Point(12, 4)}
        p.add_net_path("edge", [Point(7, 13), Point(7, 7), Point(13, 7)])
        assert_index_matches_rebuild(p)
        stop_h = _stop_grids(p.index.view("mine"))[0]
        assert not stop_h[4].any() and stop_h[10].nonzero()[0].tolist() == [10]
        cross_h = p.index.grid(p.index.cross_h)
        assert cross_h[10].sum() == 1  # (7, 11) on: no cells
        # Outside the bounds there is no cell: every sweep stops at the
        # border, and no foreign wire counts there, even a real one.
        view = p.index.view("mine")
        for q in (Point(7, 12), Point(-1, 4), Point(11, 5), Point(3, -1)):
            assert view._stops(q, False) and view._stops(q, True), q
            assert not view.foreign_at(q), q
        assert view.foreign_at(Point(7, 8)) and not view._stops(Point(7, 8), False)
        p.remove_net("edge")
        assert_index_matches_rebuild(p)

    def test_prepopulated_plane_ingested(self):
        p = Plane(
            bounds=Rect(0, 0, 10, 10),
            blocked={Point(1, 1)},
            claims={Point(2, 2): "c"},
            paths={"w": [[Point(3, 3), Point(5, 3)]]},
        )
        assert_index_matches_rebuild(p)
        assert list(p.index.occ).count(0) == len(p.index.occ) - 3
        assert p.index.occ[p.index.cell(Point(4, 3))] == 1
        assert p.index.contrib["w"][Point(4, 3)] == (1, 0, 0, 1)
        assert Point(1, 1) in p.blocked

    def test_randomized_mutation_storm(self):
        rng = random.Random(0xC0FFEE)
        p = Plane(bounds=Rect(0, 0, 24, 24))
        p.blocked |= {Point(-1, 5), Point(25, 7), Point(3, 25)}  # no cells
        owners = []
        for step in range(100):
            op = rng.randrange(9)
            if op == 0:
                x, y = rng.randrange(1, 20), rng.randrange(1, 20)
                p.block_rect(Rect(x, y, rng.randrange(0, 3), rng.randrange(0, 3)))
            elif op == 1:
                owner = f"o{step}"
                if p.add_claim(Point(rng.randrange(24), rng.randrange(24)), owner):
                    owners.append(owner)
            elif op == 2 and owners:
                p.release_claims([owners.pop(rng.randrange(len(owners)))])
            elif op == 3:
                a = Point(rng.randrange(24), rng.randrange(24))
                b = Point(rng.randrange(24), a.y)
                c = Point(b.x, rng.randrange(24))
                p.add_net_path(f"net{rng.randrange(4)}", [a, b, c])
            elif op == 4:
                p.blocked.add(Point(rng.randrange(24), rng.randrange(24)))
            elif op == 5:
                blocked = sorted(p.blocked)
                p.blocked -= set(rng.sample(blocked, min(3, len(blocked))))
            elif op == 6:
                p.blocked &= {q for q in sorted(p.blocked) if rng.random() < 0.9}
            elif op == 7:
                p.blocked ^= {Point(rng.randrange(24), rng.randrange(24)) for _ in range(3)}
            elif p.blocked:
                p.blocked.pop()
            if step % 10 == 9:
                assert_index_matches_rebuild(p)
                for net in ("net0", "net1", "net2", "net3"):
                    assert_view_matches_snapshot(p, net)
        p.release_all_claims()
        assert_index_matches_rebuild(p)
        for net in ("net0", "net1", "net2", "net3"):
            p.remove_net(net)
            assert_index_matches_rebuild(p)
        for name in INDEX_BUFFERS[1:]:
            assert not any(getattr(p.index, name)), name

    def test_net_points_served_from_contrib(self):
        p = Plane(bounds=Rect(0, 0, 20, 20))
        p.add_net_path("a", [Point(0, 0), Point(4, 0), Point(4, 4)])
        p.add_net_path("b", [Point(4, 2), Point(8, 2)])
        for net in ("a", "b"):
            expected = set(net_geometry(p.paths[net])[0])
            assert p.net_points(net) == expected
        assert p.net_points("missing") == set()


class TestRemoveNet:
    """``Plane.remove_net`` erases a routed net in O(own net), leaving the
    plane and its index as if the net had never been routed."""

    def test_matches_fresh_rebuild(self):
        network = random_network(modules=14, extra_nets=6, seed=7)
        diagram, _ = place_network(network, PabloOptions())
        report = route_diagram(diagram, RouterOptions())
        routed = sorted(n for n, r in diagram.routes.items() if r.paths)
        assert report.nets_routed and routed
        plane = Plane.for_diagram(diagram)
        victim = routed[len(routed) // 2]
        assert plane.net_points(victim)

        plane.remove_net(victim)

        assert_index_matches_rebuild(plane)
        assert victim not in plane.paths
        assert not plane.net_points(victim)

    def test_unknown_net_is_a_noop(self):
        diagram, _ = place_network(example1_string(), PabloOptions())
        route_diagram(diagram, RouterOptions())
        plane = Plane.for_diagram(diagram)
        paths = copy.deepcopy(plane.paths)
        assert paths

        plane.remove_net("no-such-net")

        assert plane.paths == paths
        assert_index_matches_rebuild(plane)


class TestKeptIntervals:
    """The index keeps every free interval and hands the labels from
    view to view in place: each view's labels equal a labelling from
    scratch of its own stops, whatever view held them before."""

    def _assert_view_labels(self, view) -> None:
        index = view.index
        index.label_for(view)
        assert_labels_match(
            index,
            view.stops_at,
            lambda cell: index.occ[cell] == 0 or cell in view.self_clear,
        )

    def test_views_take_turns(self):
        p = Plane(bounds=Rect(0, 0, 16, 12))
        p.block_rect(Rect(6, 4, 2, 2))
        p.add_net_path("a", [Point(0, 2), Point(12, 2), Point(12, 9)])
        p.add_net_path("a", [Point(4, 2), Point(4, 10)])
        p.add_net_path("b", [Point(2, 0), Point(2, 11)])
        p.add_net_path("b", [Point(2, 7), Point(14, 7)])
        assert p.add_claim(Point(10, 10), "c0")
        assert p.add_claim(Point(1, 5), "c1")
        pins = {
            "a": frozenset({Point(6, 5), Point(10, 10), Point(0, 2)}),
            "b": frozenset({Point(7, 4), Point(1, 5)}),
            "c": frozenset({Point(8, 6)}),
        }
        a = p.index.view("a", pins["a"])
        for view in (a, p.index.view("b", pins["b"]), a):
            self._assert_view_labels(view)
        # Mutations under a view mark lines dirty and flip corners: the
        # next view still gets labels of its own stops.
        p.add_net_path("c", [Point(9, 0), Point(9, 3), Point(15, 3)])
        p.release_claims(["c1"])
        p.blocked.discard(Point(7, 5))
        for net in ("c", "a", "b"):
            self._assert_view_labels(p.index.view(net, pins[net]))
        p.remove_net("b")
        self._assert_view_labels(p.index.view("a", pins["a"]))
        assert_index_matches_rebuild(p)

    def test_search_raising_midway_leaves_no_scratch(self, monkeypatch):
        # A search that dies mid-way closes its field: the next connection
        # routes and counts exactly as on a plane that never saw it.
        def scene() -> Plane:
            plane = _random_scene(5)
            plane.add_net_path("mine", [Point(0, 11), Point(6, 11)])
            return plane

        def route(plane: Plane, stats: SearchStats):
            return route_connection(
                plane, "mine", Point(0, 0), list(Direction), [Point(21, 20)], stats=stats
            )

        plane = scene()
        pushes = []

        def heappush(heap, item):
            pushes.append(item)
            if len(pushes) == 8:
                raise RuntimeError("push failed")
            heapq.heappush(heap, item)

        monkeypatch.setattr(
            line_expansion, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
        )
        with pytest.raises(RuntimeError, match="push failed"):
            route_connection(plane, "mine", Point(22, 22), list(Direction), [Point(1, 21)])
        monkeypatch.undo()
        assert (plane.index.wave == UNREACHED).all()
        assert (plane.index.fwave == UNREACHED).all()
        assert (plane.index.laid == UNLAID).all()

        stats, fresh_stats = SearchStats(), SearchStats()
        got, want = route(plane, stats), route(scene(), fresh_stats)
        assert got == want and got is not None
        for s in (stats, fresh_stats):
            for row in s.connections:
                del row["field_s"], row["seconds"]
        assert stats == fresh_stats


def _random_scene(seed: int) -> Plane:
    rng = random.Random(seed)
    p = Plane(bounds=Rect(0, 0, 22, 22))
    for _ in range(rng.randrange(1, 4)):
        x, y = rng.randrange(2, 16), rng.randrange(2, 16)
        p.block_rect(Rect(x, y, rng.randrange(1, 4), rng.randrange(1, 4)))
    for i in range(rng.randrange(2, 6)):
        a = Point(rng.randrange(22), rng.randrange(22))
        b = Point(rng.randrange(22), a.y)
        c = Point(b.x, rng.randrange(22))
        p.add_net_path(f"f{i}", [a, b, c])
    for j in range(rng.randrange(0, 4)):
        p.add_claim(Point(rng.randrange(22), rng.randrange(22)), f"c{j}")
    return p


class TestAStarMatchesReference:
    """Property: on random scenes the indexed A* and the pre-index
    snapshot Dijkstra return identical (bends, crossings, length)."""

    def _compare(self, seed: int, cost_order: CostOrder) -> None:
        rng = random.Random(seed * 31 + 1)
        plane = _random_scene(seed)
        free = [
            Point(x, y)
            for x in range(23)
            for y in range(23)
            if Point(x, y) not in plane.blocked and Point(x, y) not in plane.claims
        ]
        for trial in range(6):
            start = rng.choice(free)
            targets = {rng.choice(free): None for _ in range(rng.randrange(1, 3))}
            dirs = rng.sample(list(Direction), rng.randrange(1, 5))
            allow = frozenset({start, *targets})
            net = rng.choice(["f0", "f1", "mine"])
            a = route_connection(
                plane, net, start, dirs, targets, allow=allow, cost_order=cost_order
            )
            b = route_connection_reference(
                plane, net, start, dirs, targets, allow=allow, cost_order=cost_order
            )
            ka = None if a is None else (a.bends, a.crossings, a.length)
            kb = None if b is None else (b.bends, b.crossings, b.length)
            assert ka == kb, (seed, trial, ka, kb)

    def test_crossings_first(self):
        for seed in range(12):
            self._compare(seed, CostOrder.BENDS_CROSSINGS_LENGTH)

    def test_length_first(self):
        for seed in range(12):
            self._compare(seed, CostOrder.BENDS_LENGTH_CROSSINGS)

    def test_escalated_search_matches_reference(self):
        # Every connection searches under the exact cost-to-go field from
        # its first pop, starts on a foreign wire included: the search
        # only has to leave such a start, so it must not be pruned.
        # Start-direction and arrival constraints can make the optimum
        # bendier than the relaxation's budget from the start, so some
        # connections must widen the field to the whole plane.
        reg = counters.get_registry()
        widened = reg.get("route.field_widenings")
        for order in CostOrder:
            for seed in range(60):
                self._compare(seed, order)
        assert reg.get("route.field_widenings") > widened

    def test_astar_never_expands_more(self):
        # The admissible heuristic may only prune, never add, expansions
        # relative to the undirected search on the same scene.
        total_a = total_b = 0
        for seed in range(6):
            plane = _random_scene(seed)
            sa, sb = SearchStats(), SearchStats()
            start, goal = Point(0, 0), Point(20, 20)
            route_connection(plane, "mine", start, list(Direction), [goal], stats=sa)
            route_connection_reference(
                plane, "mine", start, list(Direction), [goal], stats=sb
            )
            total_a += sa.states_expanded
            total_b += sb.states_expanded
        assert total_a < total_b


class _Relaxation:
    """The U-turn relaxation's point rules for a view, read off a
    :class:`ReferenceSnapshot` of its plane, net and ``allow`` so that
    the oracle shares no code with the view.  A state is ``(x, y,
    axis)``, axis 0 horizontal and 1 vertical."""

    def __init__(self, view):
        snap = ReferenceSnapshot(view.index.plane, view.net, view.allow)
        self.x1, self.y1, self.x2, self.y2 = snap.x1, snap.y1, snap.x2, snap.y2
        self._stops = (snap.hard | snap.blocked_h, snap.hard | snap.blocked_v)
        self._crossings = (snap.cross_h, snap.cross_v)
        self._foreign = snap.foreign_any

    def inside(self, x, y):
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def stops(self, x, y, axis):
        """Does the state sit on a stop of its axis or outside the plane?"""
        return not self.inside(x, y) or (x, y) in self._stops[axis]

    def bendable(self, x, y):
        return (x, y) not in self._foreign

    def crossings(self, x, y, axis):
        """The foreign crossings entering ``(x, y)`` along ``axis`` pays."""
        return self._crossings[axis].get((x, y), 0)


def _reference_cost_to_go(relax, target_dirs, cost_order):
    """Per-state Dijkstra, backwards from the goal states, on the U-turn
    relaxation: a state ``(x, y, axis)`` may run on along its axis in
    either sense, paying each entered point's crossings and one length,
    or bend where it stands for one bend.  Goal states follow the
    search's acceptance rule.  Returns ``{state: key-order cost tuple}``
    for every state with a completion."""
    stops, bendable = relax.stops, relax.bendable

    def entry(x, y, axis):
        return cost_order.key(0, relax.crossings(x, y, axis), 1)

    dist = {}
    heap = []
    for (tx, ty), dirs in target_dirs.items():
        if not bendable(tx, ty):
            continue
        for di in range(4) if dirs is None else dirs:
            axis = 0 if di < 2 else 1  # LEFT, RIGHT move horizontally
            if not stops(tx, ty, axis):
                heapq.heappush(heap, ((0, 0, 0), (tx, ty, axis)))
    while heap:
        cost, state = heapq.heappop(heap)
        if state in dist:
            continue
        dist[state] = cost
        x, y, axis = state
        preds = []
        if not stops(x, y, axis):
            # Entering (x, y) along the axis from either neighbour.
            c = entry(x, y, axis)
            dx, dy = (1, 0) if axis == 0 else (0, 1)
            for px, py in ((x - dx, y - dy), (x + dx, y + dy)):
                if relax.inside(px, py):
                    preds.append(((px, py, axis), c))
        if bendable(x, y):
            preds.append(((x, y, 1 - axis), (1, 0, 0)))
        for pred, c in preds:
            if pred not in dist:
                heapq.heappush(
                    heap, ((cost[0] + c[0], cost[1] + c[1], cost[2] + c[2]), pred)
                )
    return dist


def _reference_forward_bends(relax, start, start_dirs):
    """Per-state 0-1 BFS, forwards from the start's states on the axes
    of ``start_dirs``, on the same relaxation: the fewest bends that
    reach each state."""
    stops, bendable = relax.stops, relax.bendable
    dist = {}
    queue = collections.deque(
        (0, (*start, axis)) for axis in {d >> 1 for d in start_dirs}
    )
    while queue:
        bends, state = queue.popleft()
        if state in dist:
            continue
        dist[state] = bends
        x, y, axis = state
        dx, dy = (1, 0) if axis == 0 else (0, 1)
        for qx, qy in ((x - dx, y - dy), (x + dx, y + dy)):
            if not stops(qx, qy, axis):
                queue.appendleft((bends, (qx, qy, axis)))
        if bendable(x, y) and not stops(x, y, 1 - axis):
            queue.append((bends + 1, (x, y, 1 - axis)))
    return dist


def _decode(value: int, shift: int):
    if value < 0:
        return None
    mask = (1 << shift) - 1
    return value >> (2 * shift), (value >> shift) & mask, value & mask


class TestBendDistance:
    """The escalation bound's interval sweep (:func:`cost_to_go`) equals
    a per-state Dijkstra on the U-turn relaxation — bends, crossings and
    length — for own, foreign and fresh nets, with ``allow`` points and
    claims in play, under both cost orders: at every state without a
    start, and with one on the start's corridor; every other state with
    a start is unswept."""

    def _check(self, plane: Plane, rng: random.Random, targets=None, starts=()) -> int:
        """Compare every state of a 23x23 plane, also from each of
        ``starts`` leaving in any direction; return the most bends a
        finite cost-to-go needs.  ``targets`` (point -> accepted arrival
        direction indices) replaces the random targets and ``allow``
        points."""
        grid = [Point(x, y) for x in range(23) for y in range(23)]
        hard = sorted(set(plane.blocked) | set(plane.claims))
        deepest = 0
        fixed = targets
        for net in ("f0", "f1", "mine"):
            if fixed:
                targets, allow = fixed, frozenset(fixed)
            else:
                targets = {
                    p: rng.choice(
                        [None, frozenset(rng.sample(range(4), rng.randrange(1, 4)))]
                    )
                    for p in rng.sample(grid, rng.randrange(1, 4))
                }
                allow = frozenset([*targets, *rng.sample(hard, min(len(hard), 3))])
            view = plane.index.view(net, allow)
            relax = _Relaxation(view)
            target_dirs = {(p.x, p.y): d for p, d in targets.items()}
            for order in CostOrder:
                field, shift, budget = cost_to_go(view, target_dirs, order)
                assert budget is None
                want = _reference_cost_to_go(relax, target_dirs, order)
                for x, y in grid:
                    for axis in (0, 1):
                        got = _decode(int(field[axis][y][x]), shift)
                        if relax.stops(x, y, axis):
                            # Never entered: the search bounds a start
                            # there itself.
                            assert got is None, (net, order, x, y, axis)
                            continue
                        assert got == want.get((x, y, axis)), (
                            net, order, x, y, axis, got, want.get((x, y, axis))
                        )
                        if got is not None:
                            deepest = max(deepest, got[0])
                for start in starts:
                    self._check_corridor(
                        view, relax, target_dirs, order, start, range(4), field, want
                    )
                for _ in range(3):
                    start = rng.choice(grid)
                    dirs = rng.sample(range(4), rng.randrange(1, 5))
                    self._check_corridor(
                        view, relax, target_dirs, order, start, dirs, field, want
                    )
        return deepest

    def _check_corridor(
        self, view, relax, target_dirs, order, start, dirs, whole, want
    ):
        """The field from ``start`` against the references: exact on every
        state whose forward plus backward relaxed bends equal the start's
        budget, unswept (``-1``) elsewhere."""
        field, shift, budget = cost_to_go(
            view, target_dirs, order, (start.x, start.y), dirs
        )
        axes = {d >> 1 for d in dirs}
        if any(relax.stops(start.x, start.y, axis) for axis in axes):
            # No start interval: the whole-plane field.
            assert budget is None and np.array_equal(field, whole)
            return
        states = [(start.x, start.y, axis) for axis in axes]
        reached = [want[s][0] for s in states if s in want]
        if not reached:
            assert budget is None and (field == -1).all()
            return
        assert budget == min(reached)
        forward = _reference_forward_bends(relax, (start.x, start.y), dirs)
        context = (order, start, dirs)
        for x in range(23):
            for y in range(23):
                for axis in (0, 1):
                    got = _decode(int(field[axis][y][x]), shift)
                    if relax.stops(x, y, axis):
                        assert got is None, (*context, x, y, axis)
                        continue
                    exact = want.get((x, y, axis))
                    bends = budget + 1 if exact is None else exact[0]
                    if forward.get((x, y, axis), budget + 1) + bends == budget:
                        assert got == exact, (*context, x, y, axis, got, exact)
                    else:
                        assert got is None, (*context, x, y, axis, got)
                    assert got is None or got <= exact, (*context, x, y, axis)

    def test_matches_per_point_expansion(self):
        for seed in range(30):
            self._check(_random_scene(seed), random.Random(seed * 17 + 5))

    def test_matches_on_walled_channels(self):
        # A serpentine of walls forces bends well past the geometric
        # bound's ceiling of 3.
        plane = Plane(bounds=Rect(0, 0, 22, 22))
        for k, x in enumerate((4, 8, 12, 16)):
            plane.block_rect(Rect(x, 0 if k % 2 == 0 else 4, 0, 18))
        plane.add_net_path("f0", [Point(2, 1), Point(2, 21)])
        plane.add_net_path("f1", [Point(5, 11), Point(7, 11), Point(7, 15)])
        assert plane.add_claim(Point(10, 12), "c0")
        rng = random.Random(3)
        assert max(self._check(plane, rng) for _ in range(8)) >= 6
        # A walled-in pocket: with the start inside, the waves from the
        # start stop growing first; with the target inside, those from the
        # target do.  Either way no start interval is reached.
        for x, y, w, h in ((17, 17, 4, 0), (17, 21, 4, 0), (17, 18, 0, 2), (21, 18, 0, 2)):
            plane.block_rect(Rect(x, y, w, h))
        inside, outside = Point(19, 19), Point(1, 20)
        for start, target in ((inside, outside), (outside, inside)):
            self._check(plane, rng, {target: None}, (start,))

    def test_exact_beyond_int64(self, monkeypatch):
        # Sweeps whose offsets would leave int64 run on Python integers
        # and return the same field, whole-plane and corridor alike.
        plane = _random_scene(4)
        view = plane.index.view("f0", frozenset({Point(3, 3), Point(19, 17)}))
        target_dirs = {(3, 3): None, (19, 17): frozenset({2})}
        for order in CostOrder:
            for start in (None, (19, 3)):
                args = (view, target_dirs, order, start, [0, 2])
                want, shift, budget = cost_to_go(*args)
                monkeypatch.setattr(line_expansion, "_INT64_LIMIT", 1)
                got, got_shift, got_budget = cost_to_go(*args)
                monkeypatch.undo()
                assert got.dtype == np.int64 and got_shift == shift
                assert got_budget == budget and (budget is None) == (start is None)
                assert np.array_equal(got, want)


class TestEscalatedSearch:
    def test_z_route_pops_at_most_twice_its_length(self):
        # Under the exact cost-to-go a search on an open plane walks one
        # of its equal-cost optima instead of flooding the plateau around
        # them.
        plane = Plane(bounds=Rect(0, 0, 40, 40))
        stats = SearchStats()
        r = route_connection(
            plane,
            "mine",
            Point(0, 0),
            [Direction.RIGHT],
            {Point(40, 20): frozenset({Direction.RIGHT})},
            stats=stats,
        )
        assert r is not None and (r.bends, r.crossings, r.length) == (2, 0, 60)
        assert stats.escalations == 1
        assert stats.states_expanded <= 2 * r.length


class TestStartOutsideBounds:
    def test_raises_value_error(self):
        # A state is keyed by its cell, and outside the bounds there is
        # none.  No diagram yields such a start: ``Plane.for_diagram``'s
        # bounds hold every module, terminal and routed point.
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("other", [Point(7, 0), Point(7, 10)])
        for start, targets in (
            (Point(11, 5), [Point(3, 5)]),
            (Point(-1, 0), {Point(-1, 0): None}),
            (Point(5, 11), []),
        ):
            with pytest.raises(ValueError, match="outside the plane bounds"):
                route_connection(p, "mine", start, [Direction.UP], targets)


class TestZeroLengthAcceptance:
    """Regression: the ``start in targets`` early return must apply the
    same acceptance rule as the main loop."""

    def test_foreign_wire_at_shared_point_rejects(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("other", [Point(0, 5), Point(10, 5)])
        shared = Point(5, 5)
        for routers in (route_connection, route_connection_reference):
            r = routers(p, "mine", shared, list(Direction), [shared])
            # Every path ends at the shared point, which carries a foreign
            # wire — no legal termination exists at all.
            assert r is None

    def test_own_wire_at_shared_point_accepts(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        p.add_net_path("mine", [Point(0, 5), Point(10, 5)])
        shared = Point(5, 5)
        r = route_connection(p, "mine", shared, list(Direction), [shared])
        assert r is not None and r.length == 0

    def test_arrival_constraint_satisfiable_accepts(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        s = Point(5, 5)
        r = route_connection(
            p, "mine", s, [Direction.UP], {s: frozenset({Direction.UP})}
        )
        assert r is not None and r.length == 0 and r.path == [s]

    def test_arrival_constraint_unsatisfiable_forces_loop(self):
        p = Plane(bounds=Rect(0, 0, 10, 10))
        s = Point(5, 5)
        for routers in (route_connection, route_connection_reference):
            r = routers(
                p, "mine", s, [Direction.UP], {s: frozenset({Direction.DOWN})}
            )
            # Must leave upward and come back arriving downward: a real
            # loop, never the old zero-length short-circuit.
            assert r is not None
            assert r.length > 0 and r.bends > 0


class TestPrunedCounter:
    def test_stats_pruned_tracked(self):
        stats = SearchStats()
        p = _random_scene(3)
        route_connection(
            p, "mine", Point(0, 0), list(Direction), [Point(20, 20)], stats=stats
        )
        # Stale-entry skips are bookkept separately from expansions.
        assert stats.pruned >= 0
        assert stats.states_expanded > 0
