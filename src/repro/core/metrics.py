"""Quality metrics for schematic diagrams.

The paper's readability objectives (section 3.2, rules 5 and 6) are
quantified here: total path length, number of bends, number of crossovers
between different nets, and number of branching nodes.  These are the
numbers the placement/routing experiments report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .diagram import Diagram, RoutedNet
from .geometry import Point, net_geometry


@dataclass(frozen=True)
class NetMetrics:
    """Per-net quality numbers."""

    length: int
    bends: int
    branch_nodes: int


@dataclass(frozen=True)
class DiagramMetrics:
    """Whole-diagram quality numbers."""

    nets_total: int
    nets_routed: int
    nets_failed: int
    length: int
    bends: int
    crossovers: int
    branch_nodes: int

    def as_row(self) -> Mapping[str, int]:
        return {
            "nets": self.nets_total,
            "routed": self.nets_routed,
            "failed": self.nets_failed,
            "length": self.length,
            "bends": self.bends,
            "crossovers": self.crossovers,
            "branch_nodes": self.branch_nodes,
        }


def net_branch_nodes(route: RoutedNet) -> int:
    """Points of the net tree where three or more wire arms meet."""
    return _branch_nodes(net_geometry(route.paths)[0])


def _branch_nodes(arms: Mapping[Point, int]) -> int:
    return sum(1 for mask in arms.values() if mask.bit_count() >= 3)


def net_metrics(route: RoutedNet) -> NetMetrics:
    return NetMetrics(
        length=route.length,
        bends=route.bends,
        branch_nodes=net_branch_nodes(route),
    )


def nets_per_point(diagram: Diagram) -> Counter[Point]:
    """How many nets cover each point of the routed diagram."""
    routes = diagram.routes.values()
    return Counter(chain.from_iterable(net_geometry(r.paths)[0] for r in routes))


def _crossovers(nets_at: Counter[Point]) -> int:
    return sum(k * (k - 1) // 2 for k in nets_at.values())


def count_crossovers(diagram: Diagram) -> int:
    """Number of points where two different nets cross each other.

    Every unordered pair of distinct nets sharing a grid point counts as
    one crossover at that point.
    """
    return _crossovers(nets_per_point(diagram))


def diagram_metrics(diagram: Diagram) -> DiagramMetrics:
    multi_pin = [n for n in diagram.network.nets.values() if len(n.pins) >= 2]
    routed = sum(
        1
        for n in multi_pin
        if n.name in diagram.routes and diagram.routes[n.name].complete
    )
    # One derivation per net serves its branch nodes and the crossovers.
    nets_at: Counter[Point] = Counter()
    length = bends = branches = 0
    for route in diagram.routes.values():
        arms, _ = net_geometry(route.paths)
        nets_at.update(arms.keys())
        length += route.length
        bends += route.bends
        branches += _branch_nodes(arms)
    return DiagramMetrics(
        nets_total=len(multi_pin),
        nets_routed=routed,
        nets_failed=len(multi_pin) - routed,
        length=length,
        bends=bends,
        crossovers=_crossovers(nets_at),
        branch_nodes=branches,
    )
