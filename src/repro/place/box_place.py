"""Box placement within a partition (section 4.6.5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.geometry import Point
from ..core.netlist import Adjacency, Network
from ..core.rotation import Rotation
from .gravity import GravityItem, place_by_gravity
from .module_place import BoxLayout


@dataclass
class PartitionLayout:
    """A placed partition: its boxes with positions, and its dimension."""

    boxes: list[BoxLayout]
    box_positions: list[Point] = field(default_factory=list)
    width: int = 0
    height: int = 0

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def module_count(self) -> int:
        return sum(len(b.modules) for b in self.boxes)

    def module_placements(self) -> dict[str, tuple[Point, Rotation]]:
        """Partition-local module lower-left positions and rotations."""
        out: dict[str, tuple[Point, Rotation]] = {}
        for box, origin in zip(self.boxes, self.box_positions):
            for module in box.modules:
                pos = box.positions[module]
                out[module] = (
                    Point(origin.x + pos.x, origin.y + pos.y),
                    box.rotations[module],
                )
        return out

    def net_points(
        self, network: Network, adjacency: Adjacency | None = None
    ) -> dict[str, list[Point]]:
        """Partition-local connected-terminal positions per net."""
        adjacency = adjacency or network.adjacency()
        out: dict[str, list[Point]] = {}
        for box, origin in zip(self.boxes, self.box_positions):
            for net, pts in box.net_points(network, adjacency).items():
                out.setdefault(net, []).extend(
                    Point(origin.x + p.x, origin.y + p.y) for p in pts
                )
        return out


def place_partition(
    network: Network,
    boxes: list[BoxLayout],
    *,
    spacing: int = 0,
    adjacency: Adjacency | None = None,
) -> PartitionLayout:
    """BOX_PLACEMENT: arrange the boxes of one partition by gravity and
    normalise so the partition's lower-left corner is the local origin."""
    adjacency = adjacency or network.adjacency()
    items = [
        GravityItem(
            key=str(i),
            width=box.width,
            height=box.height,
            net_points=box.net_points(network, adjacency),
            weight=len(box.modules),
        )
        for i, box in enumerate(boxes)
    ]
    positions = place_by_gravity(items, spacing=spacing)
    xs = [positions[str(i)].x for i in range(len(boxes))]
    ys = [positions[str(i)].y for i in range(len(boxes))]
    x0, y0 = min(xs), min(ys)
    layout = PartitionLayout(boxes=list(boxes))
    layout.box_positions = [
        Point(positions[str(i)].x - x0, positions[str(i)].y - y0)
        for i in range(len(boxes))
    ]
    layout.width = max(
        pos.x + box.width for pos, box in zip(layout.box_positions, boxes)
    )
    layout.height = max(
        pos.y + box.height for pos, box in zip(layout.box_positions, boxes)
    )
    return layout
