"""EUREKA — the routing driver (chapter 5 and Appendix F).

Takes a placed (possibly partially prerouted) diagram and adds a path for
every net:

* multipoint nets are routed point-to-point first, then every further
  terminal is connected to the geometry routed so far (section 5.5.3),
* claimpoints protect not-yet-routed terminals (section 5.7),
* nets that fail while claims are in place get one bounded rip-up pass
  once every claim has been released: the paper finishes example 3 by
  hand ("after adjusting some nets by hand, the routing program was
  started again"), and the pass does that on the live plane.  Each
  failed net's blockers are the few nets this run routed nearest its
  pins; the failed nets and their blockers are removed, the failed nets
  route first, then the blockers, and the result stands only if more of
  them end up complete than before — otherwise every touched net is
  restored as it was,
* prerouted paths already present in the diagram are kept and used as
  connection targets, and never ripped (Appendix F),
* the ``-u/-d/-r/-l`` options pin plane borders, ``-s`` swaps the
  crossover/length tie-break (Appendix F).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Literal

from ..core.diagram import Diagram, RoutedNet
from ..core.geometry import Direction, Point, Side
from ..core.netlist import Net, Pin
from ..obs import counters, get_logger, span
from . import claimpoints
from .line_expansion import (
    CostOrder,
    RouteResult,
    SearchStats,
    route_connection,
    start_directions_for,
)
from .plane import DEFAULT_MARGIN, Plane

NetOrder = Literal["input", "shortest_first", "fewest_pins_first"]


@dataclass(frozen=True)
class RouterOptions:
    """Knobs of the EUREKA command line (Appendix F) plus ablations."""

    claimpoints: bool = True
    cost_order: CostOrder = CostOrder.BENDS_CROSSINGS_LENGTH
    margin: int = DEFAULT_MARGIN
    fixed_sides: frozenset[Side] = frozenset()
    #: Give the nets the first pass fails one rip-up pass.
    retry_failed: bool = True
    net_order: NetOrder = "shortest_first"
    #: Cross-check every connection against the reference engine and
    #: count cost-tuple mismatches under ``route.verify_mismatch`` (slow;
    #: for tests and the routing bench).
    verify_optimum: bool = False

    def with_swap_option(self) -> "RouterOptions":
        """The -s option: length before crossovers."""
        return replace(self, cost_order=CostOrder.BENDS_LENGTH_CROSSINGS)


class FailureReason(str, enum.Enum):
    """Why a net ended up unroutable.

    ``str``-valued so reasons serialize as plain strings in JSON reports
    and compare equal to their value.
    """

    #: INIT_NET could not connect any pin pair — no geometry at all.
    NO_INITIAL_PATH = "no_initial_path"
    #: EXPAND_NET exhausted the search space for at least one pin.
    EXPANSION_EXHAUSTED = "expansion_exhausted"
    #: Failed while foreign claimpoints stood and no rip-up pass ran, so
    #: the claims may be the obstacle (the pass would have told).
    CLAIM_BLOCKED = "claim_blocked"
    #: Failed the first pass *and* the rip-up pass.
    RETRY_EXHAUSTED = "retry_exhausted"
    #: Routed in the first pass, ripped up to make room for a failed net,
    #: and not completed again.
    RIPPED_UP = "ripped_up"


class NetFailure(str):
    """A failed net's name, carrying *why* it failed.

    Subclasses ``str`` so every existing consumer of
    ``RoutingReport.failed_nets`` (membership tests, printing, JSON
    serialization) keeps working while new code reads ``.reason``.
    ``certificate`` says how the search proved its failing connection
    unroutable (``field`` or ``exhausted``, see
    :mod:`~repro.route.line_expansion`).
    """

    # (no __slots__: CPython forbids nonempty slots on str subclasses)
    reason: FailureReason
    unconnected_pins: int
    certificate: str | None

    def __new__(
        cls,
        net: str,
        reason: FailureReason,
        *,
        unconnected_pins: int = 0,
        certificate: str | None = None,
    ) -> "NetFailure":
        obj = super().__new__(cls, net)
        obj.reason = reason
        obj.unconnected_pins = unconnected_pins
        obj.certificate = certificate
        return obj

    def __repr__(self) -> str:  # keep prints informative
        return f"NetFailure({str.__repr__(self)}, {self.reason.value})"

    def because(self, reason: FailureReason) -> "NetFailure":
        """The same failure blamed on ``reason``."""
        return NetFailure(
            self,
            reason,
            unconnected_pins=self.unconnected_pins,
            certificate=self.certificate,
        )


@dataclass
class RoutingReport:
    """What happened during one EUREKA run."""

    nets_total: int = 0
    nets_routed: int = 0
    nets_failed: int = 0
    #: Unroutable nets; each element is a :class:`NetFailure` (a ``str``
    #: subclass), so ``"n" in failed_nets`` still works and
    #: ``failed_nets[0].reason`` says why.
    failed_nets: list[NetFailure] = field(default_factory=list)
    #: Nets that failed the first pass and were given the rip-up pass.
    retried_nets: list[str] = field(default_factory=list)
    #: Subset of ``retried_nets`` that the rip-up pass completed.
    recovered_nets: list[str] = field(default_factory=list)
    #: For each net in ``retried_nets``, the blockers ripped up for it.
    ripped: dict[str, list[str]] = field(default_factory=dict)
    claims_placed: int = 0
    seconds: float = 0.0
    search: SearchStats = field(default_factory=SearchStats)
    #: Search introspection built from :attr:`search`: per-net aggregates,
    #: the noisiest per-connection rows and a bound-tightness histogram —
    #: the JSON-able payload a :class:`~repro.obs.runlog.RunRecord`
    #: stores under ``extra.search`` and ``artwork-inspect explain`` reads
    #: back.
    search_detail: dict = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        if self.nets_total == 0:
            return 1.0
        return self.nets_routed / self.nets_total

    @property
    def failure_reasons(self) -> dict[str, FailureReason]:
        """``{net name: why it stayed unroutable}``."""
        return {str(f): f.reason for f in self.failed_nets}


#: A failed net's blockers for the rip-up pass: at most ``RIP_PER_NET``
#: nets with a path vertex within Manhattan distance ``RIP_RADIUS`` of
#: one of its pins.
RIP_RADIUS = 6
RIP_PER_NET = 4


def route_diagram(
    diagram: Diagram,
    options: RouterOptions | None = None,
    *,
    only_nets: Iterable[str] | None = None,
) -> RoutingReport:
    """Add a path for every unrouted net of a placed diagram, in place.

    ``only_nets`` restricts the run to a subset (used by
    :func:`~repro.route.ripup.reroute_failed` to give previously failed
    nets first pick of the freed tracks)."""
    options = options or RouterOptions()
    report = RoutingReport()
    started = time.perf_counter()

    with span("eureka.route") as root_span:
        with span("eureka.plane"):
            plane = Plane.for_diagram(
                diagram, margin=options.margin, fixed_sides=options.fixed_sides
            )
            routable = _routable_nets(diagram)
            if only_nets is not None:
                wanted = set(only_nets)
                routable = [n for n in routable if n in wanted]
            todo = _order_nets(diagram, routable, options.net_order)
        report.nets_total = len(todo)
        # How many paths each net brings in prerouted: those are kept.
        prerouted = {
            name: len(diagram.routes[name].paths)
            for name in todo
            if name in diagram.routes
        }

        if options.claimpoints:
            with span("eureka.claims"):
                report.claims_placed = claimpoints.place_claims(plane, diagram, todo)

        first_pass: dict[str, NetFailure] = {}
        with span("eureka.first_pass", nets=len(todo)):
            for net_name in todo:
                net = diagram.network.nets[net_name]
                claimpoints.release_net_claims(plane, net_name, net.pins)
                with span("eureka.net", net=net_name) as net_span:
                    failure = _route_net(plane, diagram, net, options, report.search)
                    if failure is not None:
                        net_span.set(failed=failure.reason.value)
                        if plane.claims and not options.retry_failed:
                            # Foreign claims stood during the only
                            # attempt; with no rip-up pass to
                            # disambiguate, blame them.
                            failure = failure.because(FailureReason.CLAIM_BLOCKED)
                        first_pass[net_name] = failure

        plane.release_all_claims()
        failed = list(first_pass.values())
        if options.retry_failed and first_pass:
            with span("eureka.ripup", nets=len(first_pass)):
                failed = _ripup_pass(
                    plane, diagram, todo, first_pass, prerouted, options, report
                )

        report.failed_nets = failed
        report.nets_failed = len(failed)
        report.nets_routed = report.nets_total - report.nets_failed
        report.search_detail = _search_detail(report)
        report.seconds = time.perf_counter() - started
        root_span.set(
            nets=report.nets_total,
            routed=report.nets_routed,
            failed=report.nets_failed,
        )

    counters.inc("route.runs")
    counters.inc("route.nets", report.nets_total)
    counters.inc("route.nets_routed", report.nets_routed)
    counters.inc("route.nets_failed", report.nets_failed)
    for failure in failed:
        counters.inc(f"route.failure.{failure.reason.value}")
    counters.observe("route.seconds", report.seconds)
    if report.failed_nets:
        get_logger("route.eureka").warning(
            "unroutable nets remain",
            extra={
                "fields": {
                    "failed": report.nets_failed,
                    "reasons": {
                        str(f): f.reason.value for f in report.failed_nets
                    },
                }
            },
        )
    return report


def _ripup_pass(
    plane: Plane,
    diagram: Diagram,
    todo: list[str],
    first_pass: dict[str, NetFailure],
    prerouted: dict[str, int],
    options: RouterOptions,
    report: RoutingReport,
) -> list[NetFailure]:
    """One bounded rip-up pass over the nets the first pass failed, on
    the live plane (every claim released).  Returns the nets left
    incomplete.

    Each failed net's blockers are :func:`blockers_near` its pins among
    the nets this run completed.  The failed nets and the union of their
    blockers lose every path this run routed (prerouted paths stay), then
    the failed nets route, then the blockers, each group in net order and
    under claims for its own pins.  The outcome stands when more of these
    nets end up complete than before; otherwise every touched net gets
    back its paths, its ``failed_pins`` and its plane contribution."""
    completed = set(todo) - set(first_pass)
    for name in first_pass:
        report.ripped[name] = blockers_near(diagram, name, candidates=completed)
    ripped = set().union(*report.ripped.values())
    groups = (list(first_pass), [n for n in todo if n in ripped])
    report.retried_nets = groups[0]
    counters.inc("route.retries", len(groups[0]))
    saved: dict[str, tuple[list[list[Point]], list[Pin]]] = {}
    for name in (*groups[0], *groups[1]):
        route = diagram.routes[name]
        saved[name] = (route.paths, route.failed_pins)
        _reset_net(plane, route, route.paths[: prerouted.get(name, 0)], [])

    outcome: dict[str, NetFailure | None] = {}
    for group in groups:
        if options.claimpoints:
            claimpoints.place_claims(plane, diagram, group)
        for name in group:
            net = diagram.network.nets[name]
            claimpoints.release_net_claims(plane, name, net.pins)
            with span("eureka.net", net=name, ripup=True) as net_span:
                outcome[name] = failure = _route_net(
                    plane, diagram, net, options, report.search
                )
                if failure is not None:
                    net_span.set(failed=failure.reason.value)
        plane.release_all_claims()

    if sum(f is None for f in outcome.values()) <= len(groups[1]):
        for name, (paths, failed_pins) in saved.items():
            _reset_net(plane, diagram.routes[name], paths, failed_pins)
        return [
            failure.because(FailureReason.RETRY_EXHAUSTED)
            for failure in first_pass.values()
        ]
    report.recovered_nets = [n for n in groups[0] if outcome[n] is None]
    counters.inc("route.retry_recovered", len(report.recovered_nets))
    retried, ripped_up = FailureReason.RETRY_EXHAUSTED, FailureReason.RIPPED_UP
    return [
        failure.because(retried if name in first_pass else ripped_up)
        for name, failure in outcome.items()
        if failure is not None
    ]


def _reset_net(
    plane: Plane, route: RoutedNet, paths: list[list[Point]], failed_pins: list[Pin]
) -> None:
    """Give a net exactly ``paths`` and ``failed_pins``, on the diagram
    and on the plane."""
    plane.remove_net(route.name)
    route.paths = list(paths)
    route.failed_pins = list(failed_pins)
    for path in route.paths:
        plane.add_net_path(route.name, path)


def blockers_near(
    diagram: Diagram,
    failed_net: str,
    radius: int = RIP_RADIUS,
    limit: int = RIP_PER_NET,
    *,
    candidates: set[str] | None = None,
) -> list[str]:
    """Routed nets with a path vertex within Manhattan distance ``radius``
    of one of ``failed_net``'s pins, nearest first, at most ``limit``;
    only ``candidates`` when given."""
    net = diagram.network.nets[failed_net]
    pin_points = [diagram.pin_position(p) for p in net.pins]
    scored: list[tuple[int, str]] = []
    for name, route in diagram.routes.items():
        if name == failed_net or not route.paths:
            continue
        if candidates is not None and name not in candidates:
            continue
        best = min(
            abs(q.x - p.x) + abs(q.y - p.y)
            for path in route.paths
            for q in path
            for p in pin_points
        )
        if best <= radius:
            scored.append((best, name))
    scored.sort()
    return [name for _d, name in scored[:limit]]


#: Per-connection rows persisted into a run record (the per-net
#: aggregates always cover every net; the row detail keeps the noisiest
#: searches only, so records stay a bounded size).
_DETAIL_ROWS = 200


def _search_detail(report: RoutingReport) -> dict:
    """Aggregate the router's per-connection telemetry into the JSON
    payload ``artwork-inspect explain`` and the HTML report consume."""
    connections = report.search.connections
    failed = {str(f): f for f in report.failed_nets}
    nets: dict[str, dict] = {}
    tightness: dict[str, int] = {}
    for row in connections:
        agg = nets.setdefault(
            row.get("net", "?"),
            {
                "connections": 0,
                "pops": 0,
                "pruned": 0,
                "bound_est": 0,
                "escalations": 0,
                "area": 0,
                "seconds": 0.0,
                "field_s": 0.0,
                "failures": 0,
            },
        )
        agg["connections"] += 1
        agg["pops"] += int(row.get("pops", 0))
        agg["pruned"] += int(row.get("pruned", 0))
        bound = row.get("bound")
        agg["bound_est"] += int(bound[0]) if bound else 0
        agg["escalations"] += 1 if row.get("escalated") else 0
        agg["area"] = max(agg["area"], int(row.get("area") or 0))
        agg["seconds"] += float(row.get("seconds", 0.0))
        agg["field_s"] += float(row.get("field_s", 0.0))
        agg["failures"] += 0 if row.get("found") else 1
        cost = row.get("cost")
        if row.get("found") and bound and cost:
            ratio = (bound[0] + 1) / (cost[0] + 1)
            if ratio >= 1.0:
                bucket = "1.0 (exact)"
            else:
                lo = int(ratio * 10) / 10
                bucket = f"{lo:.1f}-{lo + 0.1:.1f}"
            tightness[bucket] = tightness.get(bucket, 0) + 1
    for name, agg in nets.items():
        agg["seconds"] = round(agg["seconds"], 6)
        agg["field_s"] = round(agg["field_s"], 6)
        agg["outcome"] = "failed" if name in failed else "routed"
        if name in failed:
            agg["certificate"] = failed[name].certificate
        if name in report.ripped:
            agg["ripped"] = report.ripped[name]
    if not nets:
        return {}
    # Failed searches first, then the most pops.
    detail_rows = sorted(
        connections, key=lambda r: (bool(r.get("found")), -int(r.get("pops", 0)))
    )[:_DETAIL_ROWS]
    return {
        "nets": nets,
        "connections": detail_rows,
        "bound_tightness": tightness,
        "summary": {
            "connections": len(connections),
            "pops": report.search.states_expanded,
            "pruned": report.search.pruned,
            "escalations": report.search.escalations,
            "failures": report.search.failures,
        },
    }


def _routable_nets(diagram: Diagram) -> list[str]:
    """Nets that still need (more) routing: at least two pins and not yet
    fully connected by prerouted geometry."""
    out = []
    for net in diagram.network.nets.values():
        if len(net.pins) < 2:
            continue
        route = diagram.routes.get(net.name)
        if route is not None and route.paths:
            pts = route.points()
            if all(diagram.pin_position(p) in pts for p in net.pins):
                continue  # fully prerouted
        out.append(net.name)
    return out


def _order_nets(diagram: Diagram, names: list[str], order: NetOrder) -> list[str]:
    if order == "input":
        return list(names)

    def span(name: str) -> int:
        positions = [diagram.pin_position(p) for p in diagram.network.nets[name].pins]
        xs = [p.x for p in positions]
        ys = [p.y for p in positions]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    if order == "fewest_pins_first":
        return sorted(names, key=lambda n: (len(diagram.network.nets[n].pins), span(n), n))
    return sorted(names, key=lambda n: (span(n), len(diagram.network.nets[n].pins), n))


def _route_net(
    plane: Plane,
    diagram: Diagram,
    net: Net,
    options: RouterOptions,
    stats: SearchStats,
) -> NetFailure | None:
    """Route one (possibly multipoint, possibly partially prerouted) net.
    Returns ``None`` when every pin ends up connected, otherwise why not,
    with the certificate of the last connection that failed."""
    route = diagram.route_for(net.name)
    allow = frozenset(diagram.pin_position(p) for p in net.pins)
    existing = plane.net_points(net.name)
    stats.certificate = None

    pending = [p for p in net.pins if diagram.pin_position(p) not in existing]
    connected_any = bool(existing)

    if not connected_any:
        pending = _init_point_to_point(
            plane, diagram, route, net, pending, allow, options, stats
        )
        connected_any = bool(plane.net_points(net.name))
        if not connected_any:
            route.failed_pins = list(pending)
            return NetFailure(
                net.name,
                FailureReason.NO_INITIAL_PATH,
                unconnected_pins=len(pending),
                certificate=stats.certificate,
            )

    # EXPAND_NET: connect each remaining pin to the geometry so far,
    # nearest pin first.
    failed: list[Pin] = []
    while pending:
        geometry = plane.net_points(net.name)
        pending.sort(key=lambda p: _distance_to_set(diagram.pin_position(p), geometry))
        pin = pending.pop(0)
        result = _route_pin_to_targets(
            plane, diagram, net, pin, {q: None for q in geometry}, allow, options, stats
        )
        if result is None:
            failed.append(pin)
        else:
            _commit(plane, route, net.name, result)
    route.failed_pins = failed
    if not failed:
        return None
    return NetFailure(
        net.name,
        FailureReason.EXPANSION_EXHAUSTED,
        unconnected_pins=len(failed),
        certificate=stats.certificate,
    )


def _init_point_to_point(
    plane: Plane,
    diagram: Diagram,
    route: RoutedNet,
    net: Net,
    pending: list[Pin],
    allow: frozenset[Point],
    options: RouterOptions,
    stats: SearchStats,
) -> list[Pin]:
    """INIT_NET: try pin pairs (closest first) until one pair connects.
    Returns the pins still unconnected afterwards."""
    pairs = sorted(
        (
            (i, j)
            for i in range(len(pending))
            for j in range(i + 1, len(pending))
        ),
        key=lambda ij: diagram.pin_position(pending[ij[0]]).manhattan(
            diagram.pin_position(pending[ij[1]])
        ),
    )
    for i, j in pairs:
        a, b = pending[i], pending[j]
        target = diagram.pin_position(b)
        arrival = _arrival_directions(diagram, b)
        result = _route_pin_to_targets(
            plane, diagram, net, a, {target: arrival}, allow, options, stats
        )
        if result is not None:
            _commit(plane, route, net.name, result)
            return [p for k, p in enumerate(pending) if k not in (i, j)]
    return pending


def _route_pin_to_targets(
    plane: Plane,
    diagram: Diagram,
    net: Net,
    pin: Pin,
    targets: dict[Point, frozenset[Direction] | None],
    allow: frozenset[Point],
    options: RouterOptions,
    stats: SearchStats,
) -> RouteResult | None:
    start = diagram.pin_position(pin)
    if start in targets:
        # Abutting terminals: the pins already share a point; the net is a
        # zero-length connection there.
        return RouteResult(path=[start], bends=0, crossings=0, length=0)
    side = diagram.pin_side(pin)
    dirs = start_directions_for(side.outward if side is not None else None)
    if not targets:
        return None
    result = route_connection(
        plane,
        net.name,
        start,
        dirs,
        targets,
        allow=allow,
        cost_order=options.cost_order,
        stats=stats,
    )
    if options.verify_optimum:
        from .reference import route_connection_reference

        check = route_connection_reference(
            plane,
            net.name,
            start,
            dirs,
            targets,
            allow=allow,
            cost_order=options.cost_order,
        )
        ours = None if result is None else (result.bends, result.crossings, result.length)
        theirs = None if check is None else (check.bends, check.crossings, check.length)
        counters.inc("route.verified_connections")
        if ours != theirs:
            counters.inc("route.verify_mismatch")
            get_logger("route.eureka").error(
                "indexed A* disagrees with reference optimum",
                extra={"fields": {"net": net.name, "astar": ours, "reference": theirs}},
            )
    return result


def _arrival_directions(diagram: Diagram, pin: Pin) -> frozenset[Direction] | None:
    """A wire must arrive at a subsystem terminal moving into the module
    (perpendicular to its side); system terminals accept any arrival."""
    side = diagram.pin_side(pin)
    if side is None:
        return None
    return frozenset({side.outward.opposite})


def _commit(plane: Plane, route: RoutedNet, net_name: str, result: RouteResult) -> None:
    route.add_path(result.path)
    plane.add_net_path(net_name, result.path)


def _distance_to_set(p: Point, points: Iterable[Point]) -> int:
    return min((p.manhattan(q) for q in points), default=1 << 30)
