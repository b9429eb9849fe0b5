"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` replaces public functions of each ``repro`` layer with
timing wrappers, at the names their callers look up (a module attribute,
a class attribute, a property), so no program file changes.  It must run
before any fork: pool workers inherit the wrappers.

``repro.service.scheduler.execute_job`` is deliberately *not* wrapped:
``BatchScheduler`` takes its serial fast path only when its worker *is*
``execute_job``, and ``WorkerPool`` binds it as a default argument.

Each process keeps its spans in memory — ``(id, parent, metric, start,
end, job, attrs)`` with ``time.perf_counter`` stamps, which share one
clock across processes on Linux — and appends them to its own file in
the spans directory whenever its outermost span closes, because pool
workers can leave through ``os._exit`` without running exit handlers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Environment variable that tells a launched daemon where spans go.
SPANS_ENV = "PERFBENCH_SPANS"


def _route_attrs(report) -> dict:
    search = report.search
    return {
        "states": search.states_expanded,
        "connections": search.routes,
        "failures": search.failures,
        "escalations": search.escalations,
        "retried": len(report.retried_nets),
        "recovered": len(report.recovered_nets),
        "routed": report.nets_routed,
    }


def _place_attrs(result) -> dict:
    diagram, _report = result
    return {"modules": len(diagram.placements)}


def _cache_get_attrs(payload) -> dict:
    return {"hit": payload is not None}


#: (module, attribute path, metric, attrs-from-result).  One metric may be
#: looked up under several names; nested spans of one metric count once.
PATCHES: list[tuple[str, str, str, object]] = [
    # route: EUREKA
    ("repro.core.generator", "route_diagram", "route.s", _route_attrs),
    ("repro.route.eureka", "route_diagram", "route.s", _route_attrs),
    ("repro.route.eureka", "Plane.for_diagram", "route.plane_s", None),
    ("repro.route.claimpoints", "place_claims", "route.claims_s", None),
    ("repro.route.eureka", "route_connection", "route.search_s", None),
    # place: PABLO and its stages
    ("repro.core.generator", "place_network", "place.s", _place_attrs),
    ("repro.place.pablo", "partition_network", "place.partitioning_s", None),
    ("repro.place.pablo", "form_boxes", "place.box_formation_s", None),
    ("repro.place.pablo", "place_box", "place.module_placement_s", None),
    ("repro.place.pablo", "place_partition", "place.box_placement_s", None),
    ("repro.place.pablo", "place_partitions", "place.partition_placement_s", None),
    ("repro.place.pablo", "place_terminals", "place.terminal_placement_s", None),
    # formats, render, core
    ("repro.formats.netlist_files", "load_network_files", "formats.parse_s", None),
    ("repro.formats.escher", "write_escher", "formats.escher_write_s", None),
    ("repro.service.scheduler", "write_escher", "formats.escher_write_s", None),
    ("repro.formats.escher", "read_escher", "formats.escher_read_s", None),
    ("repro.service.scheduler", "read_escher", "formats.escher_read_s", None),
    ("repro.gateway.server", "read_escher", "formats.escher_read_s", None),
    ("repro.render.svg", "render_svg", "render.svg_s", None),
    ("repro.gateway.server", "render_svg", "render.svg_s", None),
    ("repro.core.generator", "diagram_metrics", "core.metrics_s", None),
    ("repro.core.metrics", "diagram_metrics", "core.metrics_s", None),
    # service.jobs and service.cache
    ("repro.service.jobs", "JobSpec.from_dict", "jobs.spec_s", None),
    ("repro.service.jobs", "JobSpec.from_network", "jobs.spec_s", None),
    ("repro.service.jobs", "JobSpec.digest", "jobs.digest_s", None),
    ("repro.service.cache", "ResultCache.get", "cache.get_s", _cache_get_attrs),
    ("repro.service.cache", "ResultCache.put", "cache.put_s", None),
    # obs: the telemetry a worker exports with every job
    ("repro.obs.trace", "Tracer.export_roots", "obs.export_s", None),
    ("repro.obs.counters", "Registry.snapshot", "obs.export_s", None),
    ("repro.obs.sampler", "Sampler.export", "obs.export_s", None),
]


class SpanLog:
    """In-memory spans of one process, flushed per outermost span."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # Also runs in every forked child: another thread of the parent
        # may have held the lock or had spans open at the fork.  The file
        # name stays unique even if a later process reuses the pid.
        self.path = self.out_dir / f"{os.getpid()}-{time.monotonic_ns()}.jsonl"
        self.job = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffer: list[tuple] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, metric: str, attrs_of, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        attrs = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(result)
            if metric == "jobs.spec_s" and hasattr(result, "name"):
                self.job = result.name
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._buffer.append((span_id, parent, metric, start, end, self.job, attrs))
                if not stack:
                    self._flush()

    def _flush(self) -> None:
        with open(self.path, "a") as fh:
            for row in self._buffer:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        self._buffer.clear()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def _wrapper(log: SpanLog, metric: str, attrs_of, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return log.call(metric, attrs_of, fn, args, kwargs)

    return traced


def install(out_dir: Path) -> list[tuple]:
    """Wrap every entry in :data:`PATCHES`; returns what :func:`uninstall`
    needs to put the originals back."""
    log = SpanLog(out_dir)
    undo = []
    for module_name, path, metric, attrs_of in PATCHES:
        owner, name = _resolve(module_name, path)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            patched = classmethod(_wrapper(log, metric, attrs_of, original.__func__))
        elif isinstance(original, property):
            patched = property(_wrapper(log, metric, attrs_of, original.fget))
        else:
            patched = _wrapper(log, metric, attrs_of, original)
        setattr(owner, name, patched)
        undo.append((owner, name, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def install_from_env() -> None:
    """Launcher hook: install when :data:`SPANS_ENV` names a directory."""
    out_dir = os.environ.get(SPANS_ENV)
    if out_dir:
        install(Path(out_dir))


# -- reading spans back ----------------------------------------------------


def load_spans(out_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            span_id, parent, metric, start, end, job, attrs = json.loads(line)
            spans.append({
                "process": path.stem, "id": span_id, "parent": parent, "metric": metric,
                "start": start, "end": end, "job": job, "attrs": attrs or {},
            })
    return spans


class LayerTotals:
    """Inclusive totals per metric (outermost spans of each metric only),
    self time per layer (span minus its direct children), attribute sums."""

    def __init__(self, spans: list[dict]) -> None:
        by_key = {(s["process"], s["id"]): s for s in spans}
        children = defaultdict(float)
        for s in spans:
            if s["parent"] >= 0:
                children[(s["process"], s["parent"])] += s["end"] - s["start"]
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.attrs: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.self_seconds: dict[str, float] = defaultdict(float)
        for s in spans:
            duration = s["end"] - s["start"]
            layer = s["metric"].split(".")[0]
            self.self_seconds[layer] += duration - children[(s["process"], s["id"])]
            if self._nested_in_same(s, by_key):
                continue
            self.seconds[s["metric"]] += duration
            self.calls[s["metric"]] += 1
            for key, value in s["attrs"].items():
                self.attrs[s["metric"]][key] += int(value)

    @staticmethod
    def _nested_in_same(span: dict, by_key: dict) -> bool:
        parent = span["parent"]
        while parent >= 0:
            outer = by_key.get((span["process"], parent))
            if outer is None:
                return False
            if outer["metric"] == span["metric"]:
                return True
            parent = outer["parent"]
        return False

    def per_call(self, metric: str) -> float:
        calls = self.calls.get(metric, 0)
        return self.seconds.get(metric, 0.0) / calls if calls else 0.0
