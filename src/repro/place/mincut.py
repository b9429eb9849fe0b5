"""Min-cut bipartitioning placement (section 4.2.3) — baseline.

Lauther-style top-down placement: recursively split the module set in two
roughly equal halves minimising the number of nets crossing the cut, while
splitting the available slot region along alternating directions.  The
paper credits this class with good routability but rejects it for
schematics because it ignores signal-flow direction — the baseline exists
to measure exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.diagram import Diagram
from ..core.geometry import Point
from ..core.netlist import Adjacency, Network
from .terminal_place import place_terminals

IMPROVEMENT_PASSES = 4


@dataclass(frozen=True)
class _SlotRegion:
    """A rectangular region of placement slots."""

    col: int
    row: int
    cols: int
    rows: int


def cut_count(network: Network, left: set[str], right: set[str]) -> int:
    """Nets with modules on both sides of the cut."""
    count = 0
    for net in network.nets.values():
        mods = {p.module for p in net.pins if not p.is_system}
        if mods & left and mods & right:
            count += 1
    return count


def bipartition(
    network: Network,
    members: list[str],
    left_size: int | None = None,
    *,
    adjacency: Adjacency | None = None,
) -> tuple[list[str], list[str]]:
    """Split ``members`` into halves (``left_size`` on the left, default
    half/half) with a small cut, by a seeded split plus greedy
    pairwise-exchange improvement.  ``adjacency`` is a snapshot of
    ``network`` to count on (one is taken when it is omitted)."""
    half = (len(members) + 1) // 2 if left_size is None else left_size
    if not 0 < half < len(members):
        raise ValueError(f"cannot split {len(members)} members {half}/{len(members) - half}")
    ordered = _connectivity_order(network, members, adjacency or network.adjacency())
    left, right = set(ordered[:half]), set(ordered[half:])

    for _ in range(IMPROVEMENT_PASSES):
        best_gain = 0
        best_swap: tuple[str, str] | None = None
        current = cut_count(network, left, right)
        for a in sorted(left):
            for b in sorted(right):
                left2 = (left - {a}) | {b}
                right2 = (right - {b}) | {a}
                gain = current - cut_count(network, left2, right2)
                if gain > best_gain:
                    best_gain, best_swap = gain, (a, b)
        if best_swap is None:
            break
        a, b = best_swap
        left.remove(a)
        right.remove(b)
        left.add(b)
        right.add(a)
    return sorted(left), sorted(right)


def _connectivity_order(
    network: Network, members: list[str], adjacency: Adjacency
) -> list[str]:
    """BFS over the connectivity graph so the initial halves are clumps,
    not arbitrary slices."""
    remaining = set(members)
    order: list[str] = []
    while remaining:
        seed = max(
            sorted(remaining),
            key=lambda m: adjacency.connections_to_set(m, remaining),
        )
        queue = [seed]
        remaining.discard(seed)
        while queue:
            m = queue.pop(0)
            order.append(m)
            neighbours = sorted(
                n for n in remaining if network.connection_count(m, n) > 0
            )
            for n in neighbours:
                remaining.discard(n)
                queue.append(n)
    return order


def mincut_placement(network: Network, *, spacing: int = 4) -> Diagram:
    """Recursive min-cut placement of all modules on a slot grid."""
    diagram = Diagram(network)
    names = sorted(network.modules)
    if not names:
        return diagram
    pitch_x = max(m.width for m in network.modules.values()) + spacing
    pitch_y = max(m.height for m in network.modules.values()) + spacing

    side = 1
    while side * side < len(names):
        side += 1
    slots: dict[str, tuple[int, int]] = {}
    adjacency = network.adjacency()

    def split(members: list[str], region: _SlotRegion, horizontal: bool) -> None:
        if len(members) == 1:
            slots[members[0]] = (region.col, region.row)
            return
        # Cut the region first (down the middle of the chosen direction),
        # then size the module halves to the sub-region capacities — this
        # is always feasible and keeps the halves near-balanced.
        if (horizontal and region.cols >= 2) or region.rows < 2:
            lc = max(1, region.cols // 2)
            ra = _SlotRegion(region.col, region.row, lc, region.rows)
            rb = _SlotRegion(region.col + lc, region.row, region.cols - lc, region.rows)
        else:
            lr = max(1, region.rows // 2)
            ra = _SlotRegion(region.col, region.row, region.cols, lr)
            rb = _SlotRegion(region.col, region.row + lr, region.cols, region.rows - lr)
        cap_a, cap_b = ra.cols * ra.rows, rb.cols * rb.rows
        n = len(members)
        left_size = max(n - cap_b, min(cap_a, (n + 1) // 2))
        left, right = bipartition(network, members, left_size, adjacency=adjacency)
        split(left, ra, not horizontal)
        split(right, rb, not horizontal)

    split(names, _SlotRegion(0, 0, side, side), horizontal=True)

    for name, (col, row) in slots.items():
        module = network.modules[name]
        x = col * pitch_x + (pitch_x - module.width) // 2
        y = row * pitch_y + (pitch_y - module.height) // 2
        diagram.place_module(name, Point(x, y))
    place_terminals(diagram)
    return diagram
