"""Shared fixtures: small hand-built networks and diagrams."""

from __future__ import annotations

import pytest

from repro.core.diagram import Diagram
from repro.core.geometry import Point
from repro.core.netlist import Network, TermType
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
