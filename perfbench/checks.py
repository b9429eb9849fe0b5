"""Output checks, run after the timed phase of every workload.

``life`` holds the routed diagram in memory and runs the full
:func:`check_diagram`.  ``batch`` and ``serve`` only get ESCHER text back,
and ESCHER carries no ``failed_pins``: the reloaded diagram is checked
for placement and routing rule breaks, every net *not* listed in the
payload's ``failed_nets`` must reach all its pins with one connected
geometry, and the reloaded length and crossovers must equal the payload
row.  Quality metrics always come from the payload row — ESCHER loses
the path decomposition, so bends and routed counts read back wrong.
"""

from __future__ import annotations

from repro.core.geometry import Point
from repro.core.metrics import diagram_metrics
from repro.core.validate import (
    DiagramViolation,
    check_diagram,
    placement_violations,
    routing_violations,
)
from repro.formats.escher import read_escher


def check_routed(diagram) -> list[str]:
    try:
        check_diagram(diagram)
    except DiagramViolation as exc:
        return [str(exc)]
    return []


def _connected(points: set[Point]) -> bool:
    start = next(iter(points))
    seen = {start}
    todo = [start]
    while todo:
        p = todo.pop()
        for q in (Point(p.x + 1, p.y), Point(p.x - 1, p.y),
                  Point(p.x, p.y + 1), Point(p.x, p.y - 1)):
            if q in points and q not in seen:
                seen.add(q)
                todo.append(q)
    return seen == points


def payload_counts(payload: dict) -> dict[str, int]:
    """The job's defining counts, from the worker counters it shipped."""
    counters = (payload.get("counters") or {}).get("counters", {})
    return {
        "states": counters.get("route.expansions", 0),
        "connections": counters.get("route.connections", 0),
        "routed": payload["metrics"]["routed"],
    }


def check_payload(spec, payload: dict) -> list[str]:
    """Problems with one returned job result (empty when it is right)."""
    if payload.get("status") != "ok":
        return [f"{spec.name}: status {payload.get('status')}: {payload.get('error', '')}"]
    network = spec.build_network()
    try:
        diagram = read_escher(payload["escher"], network)
    except (KeyError, ValueError) as exc:
        return [f"{spec.name}: ESCHER does not reload: {exc}"]
    problems = placement_violations(diagram) + routing_violations(diagram)
    failed = set(payload.get("failed_nets", []))
    for name, net in network.nets.items():
        if name in failed or len(net.pins) < 2:
            continue
        pins = {diagram.pin_position(p) for p in net.pins}
        route = diagram.routes.get(name)
        points = route.points() if route is not None else set()
        if len(pins) == 1 and not points:
            continue  # abutting terminals: a zero-length connection
        if not pins <= points:
            problems.append(f"net {name!r} misses {len(pins - points)} of its pins")
        elif not _connected(points):
            problems.append(f"net {name!r} geometry is disconnected")
    reloaded = diagram_metrics(diagram)
    row = payload.get("metrics", {})
    for key, value in (("length", reloaded.length), ("crossovers", reloaded.crossovers)):
        if row.get(key) != value:
            problems.append(f"reloaded {key} {value} != payload {row.get(key)}")
    return [f"{spec.name}: {p}" for p in problems]

