"""Routing-plane index benchmark: pre-index snapshot Dijkstra vs the
incrementally indexed A*.

Two workloads (random nets and the datapath generator) are placed once;
each engine then routes its own deep copy of the placed diagram, so both
see identical geometry.  Measured per engine: wall time, states expanded
and (for the A*) stale-entry prunes.  A microbench also isolates the
per-connection obstacle-view cost — the O(plane) ``ReferenceSnapshot``
rebuild (cold) vs the O(own net) ``PlaneIndex.view`` overlay (warm) on
the fully routed plane.

Cost-tuple identity is enforced two ways: the engines must rank every
workload net identically (same routed/failed sets, same aggregate search
outcome), and on the example netlists every single connection's
(bends, crossings, length) is cross-checked against the reference via
``RouterOptions(verify_optimum=True)``.

One more scenario routes the LIFE hand placement at pitch 18 and checks
the whole diagram, printing routed nets, bends, crossovers and route
seconds.  Another routes figs 6.6 and 6.7 as perfbench's ``life`` jobs do
and records the cost-to-go field's layer: connections, states, the sum
and median of the connections' ``field_s`` and the search seconds, and,
from a second, untimed pass, counts that do not drift with the machine:
the points the field's waves gather, the points it lays out and the
search's heap pushes.

Writes ``BENCH_route.json`` at the repo root for cross-PR tracking.
"""

from __future__ import annotations

import copy
import heapq
import json
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

from conftest import once, print_table

from repro.core.generator import generate, route_placed
from repro.core.validate import check_diagram
from repro.obs import counters
from repro.place.pablo import PabloOptions, place_network
from repro.route import RouterOptions, eureka, line_expansion, route_diagram
from repro.route.plane import Plane
from repro.route.reference import ReferenceSnapshot, route_connection_reference
from repro.workloads import (
    datapath_network,
    example1_string,
    example2_controller,
    hand_placement,
    life_network,
    random_network,
)

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_route.json"

#: Interleaved cold/warm passes of the view-cost microbench; each figure
#: is the median pass.
VIEW_PASSES = 7

#: Acceptance floors for the tentpole (ISSUE 4): the indexed A* must
#: expand ≥3x fewer states and finish ≥2x faster on the random-nets
#: workload than the pre-index path.
MIN_STATE_RATIO = 3.0
MIN_WALL_RATIO = 2.0

#: The perfbench ``life`` jobs' router: EUREKA ``--margin 14``.  Fig 6.6
#: routes the hand placement at pitch 24, fig 6.7 PABLO ``-p 7 -b 5``'s.
LIFE_ROUTER = RouterOptions(margin=14)
LIFE_PABLO = PabloOptions(partition_size=7, box_size=5)

#: Sampling ticks the profile attribution collects at least: the
#: datapath route repeats under one sampler until it has them, so the
#: top frames are not a handful of samples.
MIN_PROFILE_TICKS = 200
#: Routes the attribution gives up after, should the sampler starve.
MAX_PROFILE_ROUTES = 100

#: Acceptance ceiling for the heuristic tentpole (ISSUE 9): the
#: crossover-aware bound plus the escalated searches' exact cost-to-go
#: field must at least halve the datapath workload's expanded states vs
#: the 56,261 the plain geometric bound needed.
MAX_DATAPATH_STATES = 28_130


def _workloads():
    random_net = random_network(modules=20, extra_nets=8, seed=11)
    dp_net = datapath_network(lanes=3, stages=6)
    return {
        "random_nets": place_network(random_net, PabloOptions())[0],
        "datapath": place_network(dp_net, PabloOptions())[0],
    }


def _route_once(diagram, options):
    d = copy.deepcopy(diagram)
    started = time.perf_counter()
    report = route_diagram(d, options)
    wall = time.perf_counter() - started
    return d, report, wall


def test_bench_route_engines(benchmark, experiment_store, monkeypatch):
    workloads = _workloads()

    def run():
        rows = []
        for name, placed in workloads.items():
            reg = counters.get_registry()
            with monkeypatch.context() as patch:
                # The reference Dijkstra in place of the router's search.
                patch.setattr(eureka, "route_connection", route_connection_reference)
                _, ref_report, ref_wall = _route_once(placed, RouterOptions())
            before = reg.get("route.astar_pruned")
            _, idx_report, idx_wall = _route_once(placed, RouterOptions())
            pruned = reg.get("route.astar_pruned") - before
            assert idx_report.nets_routed == ref_report.nets_routed
            assert {str(f) for f in idx_report.failed_nets} == {
                str(f) for f in ref_report.failed_nets
            }
            rows.append(
                {
                    "workload": name,
                    "engine": "reference",
                    "wall_s": round(ref_wall, 3),
                    "states": ref_report.search.states_expanded,
                    "pruned": 0,
                    "routed": f"{ref_report.nets_routed}/{ref_report.nets_total}",
                }
            )
            rows.append(
                {
                    "workload": name,
                    "engine": "indexed-astar",
                    "wall_s": round(idx_wall, 3),
                    "states": idx_report.search.states_expanded,
                    "pruned": pruned,
                    "routed": f"{idx_report.nets_routed}/{idx_report.nets_total}",
                }
            )
        return rows

    rows = once(benchmark, run)
    print_table("routing engines: pre-index reference vs indexed A*", rows)
    experiment_store["route_engines"] = rows

    by_key = {(r["workload"], r["engine"]): r for r in rows}
    ref = by_key[("random_nets", "reference")]
    idx = by_key[("random_nets", "indexed-astar")]
    state_ratio = ref["states"] / max(1, idx["states"])
    wall_ratio = ref["wall_s"] / max(1e-9, idx["wall_s"])
    experiment_store["route_ratios"] = {
        "states_ratio": round(state_ratio, 2),
        "wall_ratio": round(wall_ratio, 2),
    }
    assert state_ratio >= MIN_STATE_RATIO, (
        f"A* expanded only {state_ratio:.2f}x fewer states than the "
        f"reference (need >= {MIN_STATE_RATIO}x)"
    )
    assert wall_ratio >= MIN_WALL_RATIO, (
        f"indexed path only {wall_ratio:.2f}x faster than the reference "
        f"(need >= {MIN_WALL_RATIO}x)"
    )

    dp_ref = by_key[("datapath", "reference")]
    dp_idx = by_key[("datapath", "indexed-astar")]
    experiment_store["route_datapath_ratios"] = {
        "states_ratio": round(dp_ref["states"] / max(1, dp_idx["states"]), 2),
        "wall_ratio": round(dp_ref["wall_s"] / max(1e-9, dp_idx["wall_s"]), 2),
        "states": dp_idx["states"],
    }
    assert dp_idx["states"] <= MAX_DATAPATH_STATES, (
        f"datapath A* expanded {dp_idx['states']} states "
        f"(ceiling {MAX_DATAPATH_STATES})"
    )


def test_bench_snapshot_vs_view(benchmark, experiment_store):
    """Per-connection obstacle-view cost on a fully routed plane: the
    cold O(plane) snapshot rebuild vs the warm O(own net) index overlay.

    One pass of 25 repeats swung the warm figure by almost 2x from run to
    run, so the bench times ``VIEW_PASSES`` interleaved cold/warm passes
    and reports the median pass of each."""
    placed = _workloads()["random_nets"]
    routed, _, _ = _route_once(placed, RouterOptions())
    plane = Plane.for_diagram(routed)
    nets = [n for n in routed.network.nets if plane.net_points(n)]
    repeats = 25

    def run():
        cold, warm = [], []
        for _ in range(VIEW_PASSES):
            started = time.perf_counter()
            for _ in range(repeats):
                for net in nets:
                    ReferenceSnapshot(plane, net, frozenset())
            cold.append(time.perf_counter() - started)
            started = time.perf_counter()
            for _ in range(repeats):
                for net in nets:
                    plane.index.view(net)
            warm.append(time.perf_counter() - started)
        return statistics.median(cold), statistics.median(warm)

    cold, warm = once(benchmark, run)
    per = repeats * len(nets)
    rows = [
        {
            "view": "ReferenceSnapshot (cold rebuild)",
            "per_connection_us": round(1e6 * cold / per, 1),
            "passes": VIEW_PASSES,
        },
        {
            "view": "PlaneIndex.view (warm overlay)",
            "per_connection_us": round(1e6 * warm / per, 1),
            "passes": VIEW_PASSES,
        },
    ]
    print_table("per-connection obstacle view cost (median pass)", rows)
    experiment_store["route_view_cost"] = rows
    assert warm < cold, "index overlay failed to beat the snapshot rebuild"


def test_bench_route_verified_examples(benchmark, experiment_store):
    """Every connection of the example netlists must have the exact
    reference optimum: identical (bends, crossings, length) per net, with
    every connection searching under the cost-to-go field."""
    examples = {
        "example1_string": example1_string(),
        "example2_controller": example2_controller(),
    }
    placed = {
        name: place_network(network, PabloOptions())[0]
        for name, network in examples.items()
    }

    def run():
        reg = counters.get_registry()
        out = []
        for name, diagram in placed.items():
            v0 = reg.get("route.verified_connections")
            m0 = reg.get("route.verify_mismatch")
            e0 = reg.get("route.heur_escalations")
            _, report, _ = _route_once(diagram, RouterOptions(verify_optimum=True))
            out.append(
                {
                    "netlist": name,
                    "verified": reg.get("route.verified_connections") - v0,
                    "escalated": reg.get("route.heur_escalations") - e0,
                    "mismatches": reg.get("route.verify_mismatch") - m0,
                    "routed": f"{report.nets_routed}/{report.nets_total}",
                }
            )
        return out

    rows = once(benchmark, run)
    print_table("per-connection optimum verification (examples)", rows)
    experiment_store["route_verified"] = rows
    for row in rows:
        assert row["verified"] > 0, row
        assert row["mismatches"] == 0, row
        assert row["escalated"] == row["verified"], row


def test_bench_route_life_pitch18(benchmark, experiment_store):
    """The LIFE hand placement packed to pitch 18, denser than fig 6.6's
    24, routed without the rip-up pass and checked as a whole
    diagram: every wire legal, every routed net connected."""

    def run():
        result = route_placed(
            hand_placement(pitch=18), RouterOptions(margin=10, retry_failed=False)
        )
        check_diagram(result.diagram)
        m = result.metrics
        return {
            "scenario": "life(pitch 18)",
            "routed": f"{m.nets_routed}/{m.nets_total}",
            "bends": m.bends,
            "crossovers": m.crossovers,
            "route_s": round(result.routing.seconds, 2),
        }

    row = once(benchmark, run)
    print_table("LIFE hand placement at pitch 18", [row])
    experiment_store["route_life_pitch18"] = row


def _field_volume(job, monkeypatch) -> dict:
    """Run ``job`` once with the field's and the search's work counted:
    the points the field's waves gather (every run of line space they
    read), the points its layouts hold, and the search's heap pushes."""
    counts = {"pushes": 0, "gathered": 0, "laid": 0}
    ranges = line_expansion._ranges

    def gathered(begin, size):
        runs = ranges(begin, size)
        counts["gathered"] += runs.size
        return runs

    class Counted(line_expansion.Field):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts["laid"] += len(self.values)

    def heappush(heap, item):
        counts["pushes"] += 1
        heapq.heappush(heap, item)

    with monkeypatch.context() as patch:
        patch.setattr(line_expansion, "_ranges", gathered)
        patch.setattr(line_expansion, "Field", Counted)
        patch.setattr(
            line_expansion,
            "heapq",
            SimpleNamespace(heappush=heappush, heappop=heapq.heappop),
        )
        job()
    return counts


def test_bench_route_life_figures(benchmark, experiment_store, monkeypatch):
    """Figs 6.6 and 6.7 routed as perfbench's ``life`` jobs route them,
    with the cost-to-go field's layer read off the per-connection rows:
    its seconds summed and per connection (median), next to the search
    seconds that include it, the connections and the states.  A second,
    untimed pass counts the search's pushes and the field's gathered and
    laid-out points, which repeat exactly from run to run."""
    jobs = {
        "fig6_6": lambda: route_diagram(hand_placement(pitch=24), LIFE_ROUTER),
        "fig6_7": lambda: generate(life_network(), LIFE_PABLO, LIFE_ROUTER).routing,
    }

    def run():
        rows = []
        for name, job in jobs.items():
            search = job().search
            # Every connection has its row, so the sums are complete.
            assert len(search.connections) == search.routes
            field_s = [row["field_s"] for row in search.connections]
            rows.append(
                {
                    "figure": name,
                    "connections": search.routes,
                    "states": search.states_expanded,
                    "field_s": round(sum(field_s), 3),
                    "field_ms_median": round(1e3 * statistics.median(field_s), 3),
                    "search_s": round(sum(row["seconds"] for row in search.connections), 3),
                }
            )
        return rows

    rows = once(benchmark, run)
    for row, job in zip(rows, jobs.values()):
        row.update(_field_volume(job, monkeypatch))
    print_table("LIFE figures: the cost-to-go field's layer", rows)
    experiment_store["route_life_figures"] = rows


def test_bench_route_profile_attribution(benchmark, experiment_store):
    """Sampler-measured cost attribution: route the datapath workload
    under a high-hz sampling profiler, again and again until the sampler
    has ticked :data:`MIN_PROFILE_TICKS` times, and report the hottest
    self-time frames next to the wall clock.  Also projects the measured
    per-tick cost down to the always-on 19 hz rate and enforces the <2%
    overhead budget that rate is sold on."""
    from repro.obs.sampler import DEFAULT_HZ, Sampler, label_thread, merge_windows, unlabel_thread

    placed = _workloads()["datapath"]

    def run():
        sampler = Sampler(hz=199.0, window_s=1.0, max_windows=600)
        label_thread("bench.route")
        sampler.start()
        wall = 0.0
        routes = 0
        try:
            while sampler.ticks < MIN_PROFILE_TICKS and routes < MAX_PROFILE_ROUTES:
                _, report, seconds = _route_once(placed, RouterOptions())
                wall += seconds
                routes += 1
        finally:
            sampler.stop()
            unlabel_thread()
        merged = merge_windows(sampler.windows())
        per_tick_s = merged.self_s / max(1, merged.ticks)
        return {
            "routes": routes,
            "wall_s": round(wall, 3),
            "samples": merged.samples,
            "ticks": merged.ticks,
            "top_frames": merged.top_frames(5),
            "attributed_ratio": round(merged.attributed_ratio(), 3),
            "overhead_at_19hz": round(per_tick_s * DEFAULT_HZ, 5),
            "routed": f"{report.nets_routed}/{report.nets_total}",
        }

    row = once(benchmark, run)
    print_table(
        "datapath routing under the sampler",
        [
            {"frame": name, "self_samples": count,
             "share": f"{100.0 * count / max(1, row['samples']):.1f}%"}
            for name, count in row["top_frames"]
        ],
    )
    experiment_store["route_profile"] = row

    assert row["ticks"] >= MIN_PROFILE_TICKS, row
    assert row["samples"] > 0, "sampler saw no stacks during the route"
    # The hottest frames must be the router's own machinery, not noise.
    assert any(
        "repro.route" in name for name, _ in row["top_frames"]
    ), row["top_frames"]
    assert row["overhead_at_19hz"] < 0.02, (
        f"always-on sampling would cost {100 * row['overhead_at_19hz']:.2f}% "
        "of wall clock at 19 hz (budget: 2%)"
    )


def test_bench_route_summary(experiment_store):
    """Persist the routing-bench numbers as ``BENCH_route.json``."""
    engines = experiment_store.get("route_engines")
    if not engines:
        return
    BENCH_FILE.write_text(
        json.dumps(
            {
                "benchmark": "routing-plane index + admissible A*",
                "engines": engines,
                "random_nets_speedup": experiment_store.get("route_ratios"),
                "datapath_speedup": experiment_store.get("route_datapath_ratios"),
                "per_connection_view": experiment_store.get("route_view_cost"),
                "verified_examples": experiment_store.get("route_verified"),
                "life_pitch18": experiment_store.get("route_life_pitch18"),
                "life_figures": experiment_store.get("route_life_figures"),
                "profile": experiment_store.get("route_profile"),
            },
            indent=1,
        )
    )
