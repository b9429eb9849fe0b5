"""PABLO — the placement driver (chapter 4 and Appendix E).

Pipeline: partition the design (-p / -c), form boxes (strings) inside
every partition (-b), place modules inside their boxes (extra white space
-s), place boxes by gravity inside partitions (-i), place partitions by
gravity (-e), and finally place the system terminals around the bounding
box.  A preplaced (optionally prerouted) diagram may be passed in (-g);
it stays untouched, forms a partition of its own, and the rest of the
design is placed around it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..core.diagram import Diagram
from ..core.geometry import Point
from ..core.netlist import Network
from ..obs import counters, get_logger, span
from .box_place import PartitionLayout, place_partition
from .boxes import form_boxes
from .module_place import place_box
from .partition_place import FixedPart, place_partitions
from .partitioning import PartitionLimits, partition_network
from .terminal_place import place_terminals


@dataclass(frozen=True)
class PabloOptions:
    """The PABLO command-line options (Appendix E)."""

    partition_size: int = 1  # -p
    box_size: int = 1  # -b
    max_connections: float = math.inf  # -c
    partition_spacing: int = 0  # -e
    box_spacing: int = 0  # -i
    module_extra_space: int = 0  # -s

    @property
    def limits(self) -> PartitionLimits:
        return PartitionLimits(
            max_size=self.partition_size, max_connections=self.max_connections
        )


@dataclass
class PlacementReport:
    """What the placement did (for the experiments)."""

    partitions: list[list[str]] = field(default_factory=list)
    boxes: list[list[list[str]]] = field(default_factory=list)  # per partition
    seconds: float = 0.0

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def box_count(self) -> int:
        return sum(len(b) for b in self.boxes)


def place_network(
    network: Network,
    options: PabloOptions | None = None,
    *,
    preplaced: Diagram | None = None,
) -> tuple[Diagram, PlacementReport]:
    """Produce a fully placed (unrouted beyond ``preplaced``) diagram."""
    options = options or PabloOptions()
    report = PlacementReport()
    started = time.perf_counter()

    exclude: set[str] = set()
    if preplaced is not None:
        if preplaced.network is not network:
            raise ValueError("preplaced diagram must be over the same network")
        exclude = set(preplaced.placements)

    with span("pablo.place", modules=len(network.modules)):
        # Every stage counts connections on this one snapshot; the network
        # does not change while it is placed.
        adjacency = network.adjacency()
        with span("pablo.partitioning"):
            report.partitions = partition_network(
                network, options.limits, exclude=exclude, adjacency=adjacency
            )

        with span("pablo.box_formation"):
            for partition in report.partitions:
                report.boxes.append(
                    form_boxes(
                        network, partition, options.box_size, adjacency=adjacency
                    )
                )

        with span("pablo.module_placement"):
            partition_box_layouts = [
                [
                    place_box(
                        network,
                        box,
                        extra_space=options.module_extra_space,
                        adjacency=adjacency,
                    )
                    for box in boxes
                ]
                for boxes in report.boxes
            ]

        with span("pablo.box_placement"):
            layouts: list[PartitionLayout] = [
                place_partition(
                    network,
                    box_layouts,
                    spacing=options.box_spacing,
                    adjacency=adjacency,
                )
                for box_layouts in partition_box_layouts
            ]

        with span("pablo.partition_placement"):
            fixed = _fixed_part(preplaced) if preplaced is not None else None
            positions = place_partitions(
                network,
                layouts,
                spacing=options.partition_spacing,
                fixed=fixed,
                adjacency=adjacency,
            )

        diagram = (
            preplaced.copy_placement() if preplaced is not None else Diagram(network)
        )
        if preplaced is not None:
            for name, route in preplaced.routes.items():
                target = diagram.route_for(name)
                for path in route.paths:
                    target.add_path(path)
        for layout, origin in zip(layouts, positions):
            for module, (pos, rotation) in layout.module_placements().items():
                diagram.place_module(
                    module, Point(origin.x + pos.x, origin.y + pos.y), rotation
                )

        with span("pablo.terminal_placement"):
            place_terminals(diagram)

    report.seconds = time.perf_counter() - started
    counters.inc("place.runs")
    counters.inc("place.partitions", report.partition_count)
    counters.inc("place.boxes", report.box_count)
    counters.inc("place.modules", len(diagram.placements))
    counters.observe("place.seconds", report.seconds)
    get_logger("place.pablo").info(
        "placement done",
        extra={
            "fields": {
                "modules": len(diagram.placements),
                "partitions": report.partition_count,
                "boxes": report.box_count,
                "seconds": round(report.seconds, 3),
            }
        },
    )
    return diagram, report


PREPLACED_RING = 2  # white-space tracks kept clear around a preplaced part


def _fixed_part(preplaced: Diagram) -> FixedPart:
    # Normal partitions carry per-box white space; the preplaced block is
    # raw module geometry, so give it a ring of clear tracks too —
    # otherwise the gravity placement packs other partitions right against
    # its terminals and walls them in.
    bbox = preplaced.bounding_box(include_routes=True).expand(PREPLACED_RING)
    net_points: dict[str, list[Point]] = {}
    for net in preplaced.network.nets.values():
        for pin in net.pins:
            if not pin.is_system and pin.module in preplaced.placements:
                p = preplaced.pin_position(pin)
                net_points.setdefault(net.name, []).append(
                    Point(p.x - bbox.x, p.y - bbox.y)
                )
    return FixedPart(
        key="<preplaced>",
        position=bbox.lower_left,
        width=bbox.w,
        height=bbox.h,
        net_points=net_points,
    )
