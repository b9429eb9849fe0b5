"""Shared fixtures: small hand-built networks and diagrams, and the
check that a plane's index equals one rebuilt from its paths, free
intervals included."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.core.diagram import Diagram
from repro.core.geometry import HORIZONTAL_ARMS, VERTICAL_ARMS, Point, Rect, net_geometry
from repro.core.netlist import Network, TermType
from repro.route.index import PlaneIndex
from repro.route.plane import Plane
from repro.workloads.examples import example1_string, example2_controller
from repro.workloads.stdlib import instantiate, make_module


@pytest.fixture
def two_buffer_network() -> Network:
    """Two buffers in a chain with a system input and output."""
    net = Network(name="pair")
    net.add_module(instantiate("buf", "u0"))
    net.add_module(instantiate("buf", "u1"))
    net.add_system_terminal("din", TermType.IN)
    net.add_system_terminal("dout", TermType.OUT)
    net.connect("n_in", "din", "u0.a")
    net.connect("n_mid", "u0.y", "u1.a")
    net.connect("n_out", "u1.y", "dout")
    net.validate()
    return net


@pytest.fixture
def two_buffer_diagram(two_buffer_network: Network) -> Diagram:
    """The two buffers placed face to face with room to route."""
    diagram = Diagram(two_buffer_network)
    diagram.place_module("u0", Point(0, 0))
    diagram.place_module("u1", Point(8, 0))
    diagram.place_system_terminal("din", Point(-4, 1))
    diagram.place_system_terminal("dout", Point(15, 1))
    return diagram


@pytest.fixture
def square_module_network() -> Network:
    """One 4x4 module with a terminal on every side (rotation tests)."""
    net = Network(name="square")
    net.add_module(
        make_module(
            "sq",
            4,
            4,
            [
                ("l", "in", 0, 1),
                ("r", "out", 4, 2),
                ("u", "out", 1, 4),
                ("d", "in", 3, 0),
            ],
        )
    )
    return net


@pytest.fixture
def example1():
    return example1_string()


@pytest.fixture
def example2():
    return example2_controller()


def _corridor_diagram(b_pin_in_corridor: bool = False) -> Diagram:
    """Net ``a`` leaves ``m`` rightwards into a one-track corridor
    between modules ``u`` and ``d`` and turns down at its open end,
    x = 4, towards ``e``.  Net ``b`` has the shorter span, so it routes
    first, and its one-bend optimum bends exactly there: ``a``'s terminal
    is walled in.  ``b`` has a three-bend detour above the corridor.
    With ``b_pin_in_corridor`` its source pin sits inside the corridor
    instead, on ``u``'s bottom side at x = 2, where ``b`` must bend on
    the only track ``a`` has."""
    net = Network(name="corridor")
    net.add_module(make_module("m", 2, 2, [("y", "out", 2, 1)]))
    net.add_module(
        make_module("u", 2, 2, [("x", "in", 1, 0)] if b_pin_in_corridor else [])
    )
    net.add_module(make_module("d", 2, 2, []))
    net.add_module(make_module("e", 2, 2, [("x", "in", 1, 2)]))
    net.add_module(make_module("nb", 2, 2, [("y", "out", 1, 0)]))
    net.add_module(make_module("nc", 2, 2, [("x", "in", 0, 1)]))
    net.connect("a", "m.y", "e.x")
    net.connect("b", "u.x" if b_pin_in_corridor else "nb.y", "nc.x")
    diagram = Diagram(net)
    for name, corner in (
        ("m", Point(-2, -1)),
        ("u", Point(1, 1)),
        ("d", Point(1, -3)),
        ("e", Point(3, -22)),
        ("nb", Point(3, 10)),
        ("nc", Point(10, -1)),
    ):
        diagram.place_module(name, corner)
    return diagram


@pytest.fixture
def corridor_diagram():
    """Factory of :func:`_corridor_diagram` scenes."""
    return _corridor_diagram


def _fresh_index(plane: Plane) -> PlaneIndex:
    """An index rebuilt from scratch off the plane's current state."""
    fresh = PlaneIndex(plane)
    for p in plane.blocked:
        fresh.hard_changed(p, True)
    fresh.rebuild()
    return fresh


INDEX_BUFFERS = ("hard", "h_block", "v_block", "cross_h", "cross_v", "occ")


def _contribution(paths) -> dict[Point, tuple[int, int, int, int]]:
    """One net's ``contrib`` recomputed from :func:`net_geometry` of its
    paths: ``(1, 1, 0, 0)`` at a node or a single-point wire, else the
    axis flags of its wire's arms, ``(h, v, v, h)``."""
    covered, nodes = net_geometry(paths)
    out = {}
    for p, arms in covered.items():
        if p in nodes:
            out[p] = (1, 1, 0, 0)
        else:
            h = int(bool(arms & HORIZONTAL_ARMS))
            v = int(bool(arms & VERTICAL_ARMS))
            out[p] = (h, v, v, h)
    return out


def _expected_counts(plane: Plane) -> dict[str, dict[Point, int]]:
    """Per buffer, the nonzero count at every point, recomputed from the
    plane's hard points and the index's per-net ``contrib`` records
    (points outside the bounds included)."""
    want = {name: collections.Counter() for name in INDEX_BUFFERS}
    for p in set(plane.blocked) | set(plane.claims):
        want["hard"][p] = 1
    for own in plane.index.contrib.values():
        for p, contribution in own.items():
            for name, n in zip(INDEX_BUFFERS[1:], (*contribution, 1)):
                want[name][p] += n
    return {name: {p: n for p, n in c.items() if n} for name, c in want.items()}


def _grid_points(grid: np.ndarray, bounds: Rect) -> dict[Point, int]:
    ys, xs = np.nonzero(grid)
    return {
        Point(int(x) + bounds.x, int(y) + bounds.y): int(grid[y, x])
        for y, x in zip(ys, xs)
    }


#: A net no plane routes: its view has no exceptions, so the labels it
#: takes are the plane's own.
NO_NET = "<no net>"


def brute_labels(index: PlaneIndex, stops) -> tuple[list[int], dict[int, int]]:
    """Free intervals labelled from scratch, line by line: ``stops(cell,
    vertical)`` says where a sweep stops.  Returns ``lab`` over line space
    and each interval's size by its first position."""
    n, nx, ny = index.n, index.nx, index.ny
    lab, size = [-1] * (2 * n), {}
    lines = [[(i * nx + j, i * nx + j, False) for j in range(nx)] for i in range(ny)]
    lines += [[(i * nx + j, n + j * ny + i, True) for i in range(ny)] for j in range(nx)]
    for line in lines:
        first = None
        for cell, p, vertical in line:
            if stops(cell, vertical):
                first = None
                continue
            if first is None:
                first, size[p] = p, 0
            lab[p] = first
            size[first] += 1
    return lab, size


def assert_labels_match(index: PlaneIndex, stops, bendable) -> None:
    """``lab``, ``size`` at interval starts and ``corner`` (at both
    positions of every point) equal a labelling from scratch of
    ``stops`` with bends allowed where ``bendable(cell)``."""
    lab, size = brute_labels(index, stops)
    assert index.lab.tolist() == lab
    assert {p: int(index.size[p]) for p in size} == size
    n = index.n
    corner = [
        not stops(c, False) and not stops(c, True) and bendable(c) for c in range(n)
    ]
    assert index.corner[:n].tolist() == corner
    assert index.corner[index.other[:n]].tolist() == corner


def assert_index_matches_rebuild(plane: Plane) -> None:
    live, fresh = plane.index, _fresh_index(plane)
    contrib = {n: c for n, c in live.contrib.items() if c}
    assert contrib == {n: c for n, c in fresh.contrib.items() if c}
    # Every net's contribution equals the one derived from its paths
    # without the index.
    assert contrib == {n: _contribution(paths) for n, paths in plane.paths.items()}
    # Every buffer equals the rebuild's and, cell by cell, the hard points
    # and the sums recomputed from ``contrib`` inside the bounds.
    b = plane.bounds
    want = _expected_counts(plane)
    for name in INDEX_BUFFERS:
        buffer = getattr(live, name)
        assert len(buffer) == (b.w + 1) * (b.h + 1), name
        assert buffer == getattr(fresh, name), name
        assert _grid_points(live.grid(buffer), b) == {
            p: n for p, n in want[name].items() if b.contains(p)
        }, name
    assert live.crossings == sum(live.cross_h) + sum(live.cross_v)
    # The kept intervals, under a view without exceptions: the rebuild's,
    # and a labelling from scratch of the buffers' stops.
    for index in (live, fresh):
        index.label_for(index.view(NO_NET))
    starts = [p for p, first in enumerate(fresh.lab.tolist()) if p == first]
    assert np.array_equal(live.lab, fresh.lab)
    assert np.array_equal(live.size[starts], fresh.size[starts])
    assert np.array_equal(live.corner, fresh.corner)

    def stops(cell, vertical):
        return bool(live.hard[cell]) or (live.v_block if vertical else live.h_block)[cell] != 0

    assert_labels_match(live, stops, lambda cell: live.occ[cell] == 0)
