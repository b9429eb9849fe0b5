"""Partition placement (section 4.6.6).

Proceeds exactly like box placement one level up: the partition with the
most modules is placed first, then the partition most heavily connected to
the placed ones goes to the free position minimising the distance between
the shared-net gravity centers.  A preplaced part (PABLO -g) enters as a
fixed partition the rest is placed around.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.geometry import Point
from ..core.netlist import Adjacency, Network
from .box_place import PartitionLayout
from .gravity import GravityItem, place_by_gravity


@dataclass(frozen=True)
class FixedPart:
    """An immovable preplaced region participating in gravity placement."""

    key: str
    position: Point
    width: int
    height: int
    net_points: dict[str, list[Point]]  # local coordinates


def place_partitions(
    network: Network,
    layouts: list[PartitionLayout],
    *,
    spacing: int = 0,
    fixed: FixedPart | None = None,
    adjacency: Adjacency | None = None,
) -> list[Point]:
    """Absolute lower-left positions for the partitions, in order."""
    adjacency = adjacency or network.adjacency()
    items = [
        GravityItem(
            key=f"part{i}",
            width=layout.width,
            height=layout.height,
            net_points=layout.net_points(network, adjacency),
            weight=layout.module_count,
        )
        for i, layout in enumerate(layouts)
    ]
    preplaced: dict[str, Point] = {}
    if fixed is not None:
        items.append(
            GravityItem(
                key=fixed.key,
                width=fixed.width,
                height=fixed.height,
                net_points=fixed.net_points,
                weight=1_000_000,  # the preplaced part anchors the design
            )
        )
        preplaced[fixed.key] = fixed.position
    positions = place_by_gravity(items, spacing=spacing, preplaced=preplaced)
    return [positions[f"part{i}"] for i in range(len(layouts))]
