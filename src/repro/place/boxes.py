"""Box formation (section 4.6.3): strings of connected modules.

Inside every partition, boxes are formed: continuous strings of modules
where each successor is driven by its predecessor (a net runs from an
out/inout terminal of the predecessor to an in/inout terminal of the
successor).  Root candidates seed a longest-path search; the longest
string found becomes a box and the search repeats on the leftovers.  The
position in the string is the module's *level* and enforces left-to-right
signal flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.netlist import Adjacency, Network, TermType


@dataclass(frozen=True)
class DriveEdge:
    """``source`` drives ``sink`` through ``net`` (out/inout → in/inout)."""

    source: str
    sink: str
    net: str
    source_terminal: str
    sink_terminal: str


def drive_edges(network: Network, members: set[str]) -> dict[str, list[DriveEdge]]:
    """All drive edges between modules of ``members``, per source."""
    edges: dict[str, list[DriveEdge]] = {m: [] for m in members}
    for net in network.nets.values():
        drivers = []
        sinks = []
        for pin in net.pins:
            if pin.is_system or pin.module not in members:
                continue
            ttype = network.modules[pin.module].terminals[pin.terminal].type
            if ttype.drives:
                drivers.append(pin)
            if ttype.listens:
                sinks.append(pin)
        for d in drivers:
            for s in sinks:
                if d.module != s.module:
                    edges[d.module].append(
                        DriveEdge(d.module, s.module, net.name, d.terminal, s.terminal)
                    )
    for lst in edges.values():
        lst.sort(key=lambda e: (e.sink, e.net, e.sink_terminal))
    return edges


def construct_roots(
    network: Network, partition: list[str], *, adjacency: Adjacency | None = None
) -> list[str]:
    """CONSTRUCT_ROOTS: a module may head a string when it

    * connects to a module outside the partition, or
    * connects to an ``in``/``inout`` system terminal, or
    * connects to other modules through exactly one net.

    ``adjacency`` is a snapshot of ``network`` to count on (one is taken
    when it is omitted).
    """
    adjacency = adjacency or network.adjacency()
    outside = set(network.modules) - set(partition)
    roots: list[str] = []
    for module in partition:
        external = adjacency.connections_to_set(module, outside)
        system_in = any(
            any(
                p.is_system
                and network.system_terminals[p.terminal].type
                in (TermType.IN, TermType.INOUT)
                for p in net.pins
            )
            for net, pin in adjacency.pins_of_module(module)
        )
        inter_module_nets = [
            net
            for net in adjacency.module_nets.get(module, ())
            if len(adjacency.net_modules[net]) > 1
        ]
        if external > 0 or system_in or len(inter_module_nets) == 1:
            roots.append(module)
    return roots


def longest_path(
    root: str,
    remaining: set[str],
    edges: dict[str, list[DriveEdge]],
    max_length: int,
) -> list[str]:
    """LONGEST_PATH: depth-first search for the longest drive string from
    ``root`` through ``remaining`` modules, capped at ``max_length``."""
    best: list[str] = [root]

    def extend(path: list[str], available: set[str]) -> None:
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        if len(path) >= max_length:
            return
        head = path[-1]
        seen_sinks = set()
        for edge in edges.get(head, ()):
            if edge.sink in available and edge.sink not in seen_sinks:
                seen_sinks.add(edge.sink)
                path.append(edge.sink)
                available.discard(edge.sink)
                extend(path, available)
                available.add(edge.sink)
                path.pop()

    extend([root], remaining - {root})
    return best


def form_boxes(
    network: Network,
    partition: list[str],
    max_box_size: int = 1,
    *,
    adjacency: Adjacency | None = None,
) -> list[list[str]]:
    """BOX_FORMATION for one partition: repeatedly peel off the longest
    string reachable from a root.  Every module ends up in exactly one
    box; leftovers with no usable root become singleton boxes."""
    if max_box_size < 1:
        raise ValueError("box size limit must be at least 1")
    remaining = set(partition)
    edges = drive_edges(network, set(partition))
    roots = construct_roots(network, partition, adjacency=adjacency)
    boxes: list[list[str]] = []
    while remaining:
        usable_roots = [r for r in roots if r in remaining] or sorted(remaining)
        best: list[str] = []
        for root in usable_roots:
            path = longest_path(root, remaining, edges, max_box_size)
            if len(path) > len(best) or (
                len(path) == len(best) and best and path < best
            ):
                best = path
        boxes.append(best)
        remaining -= set(best)
    # Keep input order among boxes deterministic: by first-module position
    # in the original partition list.
    index = {m: i for i, m in enumerate(partition)}
    boxes.sort(key=lambda b: min(index[m] for m in b))
    return boxes


def string_edge(
    network: Network,
    prev: str,
    nxt: str,
    members: set[str],
    edges: dict[str, list[DriveEdge]] | None = None,
) -> DriveEdge:
    """The drive edge the placement aligns two string neighbours on.

    ``edges`` is :func:`drive_edges` over ``members``, when the caller
    already has it."""
    if edges is None:
        edges = drive_edges(network, members)
    for edge in edges.get(prev, ()):
        if edge.sink == nxt:
            return edge
    raise ValueError(f"no drive edge from {prev!r} to {nxt!r}")
