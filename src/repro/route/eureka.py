"""EUREKA — the routing driver (chapter 5 and Appendix F).

Takes a placed (possibly partially prerouted) diagram and adds a path for
every net:

* multipoint nets are routed point-to-point first, then every further
  terminal is connected to the geometry routed so far (section 5.5.3),
* claimpoints protect not-yet-routed terminals (section 5.7),
* nets that fail while claims are in place are retried once after every
  claim has been released (section 5.7),
* prerouted paths already present in the diagram are kept and used as
  connection targets (Appendix F),
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
from ..obs.congestion import snapshot as congestion_snapshot
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
Engine = Literal["state", "reference"]


@dataclass(frozen=True)
class RouterOptions:
    """Knobs of the EUREKA command line (Appendix F) plus ablations."""

    claimpoints: bool = True
    cost_order: CostOrder = CostOrder.BENDS_CROSSINGS_LENGTH
    margin: int = DEFAULT_MARGIN
    fixed_sides: frozenset[Side] = frozenset()
    retry_failed: bool = True
    net_order: NetOrder = "shortest_first"
    #: "state" = the indexed A* over (point, direction) states, escalating
    #: to the paper's segment-wavefront cost-to-go field; "reference" =
    #: the pre-index snapshot-rebuilding Dijkstra, kept as the oracle for
    #: ``verify_optimum`` and the routing bench.
    engine: Engine = "state"
    #: Cross-check every connection against the reference engine and
    #: count cost-tuple mismatches under ``route.verify_mismatch`` (slow;
    #: for tests and the routing bench).
    verify_optimum: bool = False

    def with_swap_option(self) -> "RouterOptions":
        """The -s option: length before crossovers."""
        return replace(self, cost_order=CostOrder.BENDS_LENGTH_CROSSINGS)


class FailureReason(str, enum.Enum):
    """Why a net ended up unroutable (or needed the retry pass).

    ``str``-valued so reasons serialize as plain strings in JSON reports
    and compare equal to their value.
    """

    #: INIT_NET could not connect any pin pair — no geometry at all.
    NO_INITIAL_PATH = "no_initial_path"
    #: EXPAND_NET exhausted the search space for at least one pin.
    EXPANSION_EXHAUSTED = "expansion_exhausted"
    #: Failed while foreign claimpoints stood and no retry pass ran, so
    #: the claims may be the obstacle (the retry would have told).
    CLAIM_BLOCKED = "claim_blocked"
    #: Failed the first pass *and* the claim-free retry.
    RETRY_EXHAUSTED = "retry_exhausted"


class NetFailure(str):
    """A failed net's name, carrying *why* it failed.

    Subclasses ``str`` so every existing consumer of
    ``RoutingReport.failed_nets`` (membership tests, printing, JSON
    serialization) keeps working while new code reads ``.reason``.
    """

    # (no __slots__: CPython forbids nonempty slots on str subclasses)
    reason: FailureReason
    unconnected_pins: int

    def __new__(
        cls, net: str, reason: FailureReason, *, unconnected_pins: int = 0
    ) -> "NetFailure":
        obj = super().__new__(cls, net)
        obj.reason = reason
        obj.unconnected_pins = unconnected_pins
        return obj

    def __repr__(self) -> str:  # keep prints informative
        return f"NetFailure({str.__repr__(self)}, {self.reason.value})"


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
    #: Nets that failed the first pass and were given the claim-free retry.
    retried_nets: list[str] = field(default_factory=list)
    #: Subset of ``retried_nets`` that routed once the claims were gone —
    #: their first-pass failure was claim blockage, not congestion.
    recovered_nets: list[str] = field(default_factory=list)
    claims_placed: int = 0
    seconds: float = 0.0
    search: SearchStats = field(default_factory=SearchStats)
    #: Congestion snapshot read off the plane index when routing finished
    #: (:meth:`repro.obs.congestion.CongestionMap.to_dict` shape) — this
    #: is what makes congestion observable per run without a plane rescan.
    congestion: dict = field(default_factory=dict)
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


def route_diagram(
    diagram: Diagram,
    options: RouterOptions | None = None,
    *,
    only_nets: Iterable[str] | None = None,
) -> RoutingReport:
    """Add a path for every unrouted net of a placed diagram, in place.

    ``only_nets`` restricts the run to a subset (used by the rip-up pass
    to give previously failed nets first pick of the freed tracks)."""
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

        if options.claimpoints:
            with span("eureka.claims"):
                report.claims_placed = claimpoints.place_claims(plane, diagram, todo)

        first_pass: dict[str, FailureReason] = {}
        claims_seen: dict[str, bool] = {}
        with span("eureka.first_pass", nets=len(todo)):
            for net_name in todo:
                net = diagram.network.nets[net_name]
                claimpoints.release_net_claims(plane, net_name, net.pins)
                with span("eureka.net", net=net_name) as net_span:
                    reason = _route_net(plane, diagram, net, options, report.search)
                    if reason is not None:
                        net_span.set(failed=reason.value)
                        first_pass[net_name] = reason
                        claims_seen[net_name] = bool(plane.claims)

        plane.release_all_claims()
        failed: list[NetFailure] = []
        if options.retry_failed and first_pass:
            # The paper retries unconnected terminals once every claim is
            # gone.  We keep protecting the *failed* nets' own terminals
            # from each other during the retry — without this, the first
            # retried net can wall in the next one all over again.
            with span("eureka.retry", nets=len(first_pass)):
                retry_nets = list(first_pass)
                if options.claimpoints:
                    claimpoints.place_claims(plane, diagram, retry_nets)
                for net_name in retry_nets:
                    net = diagram.network.nets[net_name]
                    claimpoints.release_net_claims(plane, net_name, net.pins)
                    diagram.route_for(net_name).failed_pins.clear()
                    report.retried_nets.append(net_name)
                    counters.inc("route.retries")
                    with span("eureka.net", net=net_name, retry=True) as net_span:
                        reason = _route_net(
                            plane, diagram, net, options, report.search
                        )
                    if reason is None:
                        # Routed the moment the claims were gone: the
                        # first-pass failure was claim blockage.
                        report.recovered_nets.append(net_name)
                        counters.inc("route.retry_recovered")
                    else:
                        net_span.set(failed=FailureReason.RETRY_EXHAUSTED.value)
                        failure = NetFailure(
                            net_name,
                            FailureReason.RETRY_EXHAUSTED,
                            unconnected_pins=len(
                                diagram.route_for(net_name).failed_pins
                            ),
                        )
                        failed.append(failure)
            plane.release_all_claims()
        else:
            for net_name, reason in first_pass.items():
                if claims_seen.get(net_name):
                    # Foreign claims stood during the only attempt; with
                    # no retry pass to disambiguate, blame them.
                    reason = FailureReason.CLAIM_BLOCKED
                failed.append(
                    NetFailure(
                        net_name,
                        reason,
                        unconnected_pins=len(diagram.route_for(net_name).failed_pins),
                    )
                )

        report.failed_nets = failed
        report.nets_failed = len(failed)
        report.nets_routed = report.nets_total - report.nets_failed
        report.congestion = congestion_snapshot(plane)
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


#: Per-connection rows persisted into a run record (the per-net
#: aggregates always cover every net; the row detail keeps the noisiest
#: searches only, so records stay a bounded size).
_DETAIL_ROWS = 200


def _search_detail(report: RoutingReport) -> dict:
    """Aggregate the router's per-connection telemetry into the JSON
    payload ``artwork-inspect explain`` and the HTML report consume."""
    connections = report.search.connections
    failed = {str(f) for f in report.failed_nets}
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
    if not nets:
        return {}
    detail_rows = sorted(
        connections, key=lambda r: -int(r.get("pops", 0))
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
) -> FailureReason | None:
    """Route one (possibly multipoint, possibly partially prerouted) net.
    Returns ``None`` when every pin ends up connected, otherwise why not."""
    route = diagram.route_for(net.name)
    allow = frozenset(diagram.pin_position(p) for p in net.pins)
    existing = plane.net_points(net.name)

    pending = [p for p in net.pins if diagram.pin_position(p) not in existing]
    connected_any = bool(existing)

    if not connected_any:
        pending = _init_point_to_point(
            plane, diagram, route, net, pending, allow, options, stats
        )
        connected_any = bool(plane.net_points(net.name))
        if not connected_any:
            route.failed_pins = list(pending)
            return FailureReason.NO_INITIAL_PATH

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
    return FailureReason.EXPANSION_EXHAUSTED if failed else None


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
    if options.engine == "reference":
        from .reference import route_connection_reference

        return route_connection_reference(
            plane,
            net.name,
            start,
            dirs,
            targets,
            allow=allow,
            cost_order=options.cost_order,
            stats=stats,
        )
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
