"""The append-only run registry: durable, comparable run telemetry.

Every generator/batch/bench run can append one :class:`RunRecord` — a
JSON line holding the spec digest, git revision, wall-clock per
PABLO/EUREKA stage (from the tracer), a counter/histogram snapshot, the
full quality metrics row, per-net failure reasons, the congestion
heatmap and environment info — to a :class:`RunLog` (JSONL file,
``.artwork-runs/runs.jsonl`` by default).  That file is the bench
trajectory: ``artwork-inspect`` lists, diffs and renders it, and the
regression gate (:func:`check_regressions`) compares the latest run per
workload against a committed baseline with configurable relative
tolerances.

The registry is deliberately dumb storage: appends are single
``O_APPEND`` writes (safe across concurrent processes for records of
this size), loads skip corrupt lines instead of failing, and records
round-trip losslessly through :meth:`RunRecord.to_dict`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import gmtime, strftime
from typing import TYPE_CHECKING, Any, Iterable

from .congestion import CongestionMap
from .counters import get_registry
from .sampler import get_sampler
from .trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.generator import GenerationResult

#: Default registry location, relative to the working directory.
DEFAULT_RUNLOG = Path(".artwork-runs") / "runs.jsonl"

#: Metric keys the regression gate treats as quality (lower is better).
QUALITY_METRICS = ("bends", "crossovers", "failed")


def git_rev(cwd: str | Path | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_info() -> dict:
    """Where and with what a run happened (stored per record)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }


def stages_from_spans(roots: Iterable[dict]) -> dict[str, dict]:
    """Flatten serialized worker span trees into per-stage totals —
    the same shape :meth:`repro.obs.trace.Tracer.stage_totals` returns."""
    totals: dict[str, dict] = {}

    def walk(node: dict) -> None:
        agg = totals.setdefault(
            str(node.get("name", "?")), {"seconds": 0.0, "count": 0}
        )
        agg["seconds"] += float(node.get("duration", 0.0))
        agg["count"] += 1
        for child in node.get("children", ()):
            walk(child)

    for root in roots:
        walk(root)
    for agg in totals.values():
        agg["seconds"] = round(agg["seconds"], 6)
    return totals


@dataclass
class RunRecord:
    """One run's durable telemetry — everything a later diagnosis needs."""

    run_id: str = ""
    kind: str = "artwork"  # artwork | pablo | eureka | batch | job | bench
    name: str = ""
    timestamp: str = ""
    git_rev: str = ""
    spec_digest: str = ""
    wall_seconds: float = 0.0
    #: Per-stage wall clock from the tracer: ``{span name: {seconds, count}}``.
    stages: dict[str, dict] = field(default_factory=dict)
    #: ``Registry.snapshot()`` shape: counters + histograms (with percentiles).
    counters: dict = field(default_factory=dict)
    #: ``DiagramMetrics.as_row()`` shape.
    metrics: dict = field(default_factory=dict)
    #: Per-net failure drill-down: ``{net: {reason, unconnected_pins,
    #: certificate}}``.
    failures: dict[str, dict] = field(default_factory=dict)
    #: ``CongestionMap.to_dict()`` shape (may be empty for placement-only runs).
    congestion: dict = field(default_factory=dict)
    #: Rendered profile tree text (when tracing was on) for reports.
    profile: str = ""
    #: Sampling-profiler windows (:meth:`repro.obs.sampler.ProfileWindow
    #: .to_dict` shape) that overlapped the run — what ``artwork-inspect
    #: flame`` and the report's flamegraph section render.
    profile_windows: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        return cls(**{k: v for k, v in data.items() if k in known})

    def seal(self) -> "RunRecord":
        """Derive ``run_id`` from the record's content (stable, 12 hex)."""
        if not self.run_id:
            payload = self.to_dict()
            payload.pop("run_id", None)
            blob = json.dumps(payload, sort_keys=True, default=str)
            self.run_id = hashlib.sha256(blob.encode()).hexdigest()[:12]
        return self

    @property
    def quality_row(self) -> dict:
        """The Table-6.1 shaped row reports and the regression gate read."""
        row = {k: self.metrics.get(k, 0) for k in (
            "nets", "routed", "failed", "length", "bends", "crossovers",
            "branch_nodes",
        )}
        row["wall_seconds"] = round(self.wall_seconds, 4)
        return row


class RunLog:
    """Append-only JSONL registry of :class:`RunRecord` s."""

    def __init__(self, path: str | Path = DEFAULT_RUNLOG) -> None:
        self.path = Path(path)
        #: Lines the last :meth:`load` could not parse (corruption tally).
        self.corrupt_lines = 0

    # -- writing --------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        record.seal()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            # ``default=str`` so a stray Path/enum in ``extra`` degrades to
            # text instead of losing the whole record.
            fh.write(json.dumps(record.to_dict(), sort_keys=True, default=str) + "\n")
        return record

    def record(
        self,
        *,
        kind: str,
        name: str,
        wall_seconds: float = 0.0,
        spec_digest: str = "",
        stages: dict | None = None,
        counters: dict | None = None,
        metrics: dict | None = None,
        failures: dict | None = None,
        congestion: dict | None = None,
        profile: str | None = None,
        profile_windows: list | None = None,
        extra: dict | None = None,
    ) -> RunRecord:
        """Assemble a record (filling stages/counters/env from the live
        tracer and registry when not given) and append it.

        ``profile_windows`` defaults to whatever the process's always-on
        sampler collected (empty when profiling is off); pass ``[]`` to
        keep a record deliberately lean."""
        tracer = get_tracer()
        if stages is None:
            stages = tracer.stage_totals() if tracer.enabled else {}
        if profile is None:
            profile = tracer.profile_tree() if tracer.enabled else ""
        if profile_windows is None:
            sampler = get_sampler()
            profile_windows = sampler.export() if sampler is not None else []
        record = RunRecord(
            kind=kind,
            name=name,
            timestamp=strftime("%Y-%m-%dT%H:%M:%SZ", gmtime()),
            git_rev=git_rev(),
            spec_digest=spec_digest,
            wall_seconds=round(wall_seconds, 6),
            stages=stages,
            counters=counters if counters is not None else get_registry().snapshot(),
            metrics=metrics or {},
            failures=failures or {},
            congestion=congestion or {},
            profile=profile,
            profile_windows=profile_windows,
            environment=environment_info(),
            extra=extra or {},
        )
        return self.append(record)

    def record_result(
        self,
        result: "GenerationResult",
        *,
        kind: str = "artwork",
        name: str = "",
        spec_digest: str = "",
        extra: dict | None = None,
    ) -> RunRecord:
        """Record one generator run: metrics and failure reasons come
        straight off the result, the congestion map from its diagram."""
        routing = result.routing
        failures = {
            str(f): {
                "reason": f.reason.value,
                "unconnected_pins": getattr(f, "unconnected_pins", 0),
                "certificate": getattr(f, "certificate", None),
            }
            for f in routing.failed_nets
        }
        search_detail = dict(getattr(routing, "search_detail", {}) or {})
        if search_detail:
            extra = dict(extra or {})
            extra.setdefault("search", search_detail)
        return self.record(
            kind=kind,
            name=name or result.diagram.network.name,
            wall_seconds=result.placement.seconds + routing.seconds,
            spec_digest=spec_digest,
            metrics=dict(result.metrics.as_row()),
            failures=failures,
            congestion=CongestionMap.from_diagram(result.diagram).to_dict(),
            extra=extra,
        )

    # -- reading --------------------------------------------------------

    def load(self) -> list[RunRecord]:
        """Every parseable record, oldest first; corrupt lines are
        skipped and tallied in :attr:`corrupt_lines`."""
        self.corrupt_lines = 0
        records: list[RunRecord] = []
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return records
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError("record is not an object")
                records.append(RunRecord.from_dict(data))
            except (ValueError, TypeError):
                self.corrupt_lines += 1
        return records

    def runs(
        self, *, kind: str | None = None, name: str | None = None
    ) -> list[RunRecord]:
        return [
            r
            for r in self.load()
            if (kind is None or r.kind == kind)
            and (name is None or r.name == name)
        ]

    def latest(
        self, *, kind: str | None = None, name: str | None = None
    ) -> RunRecord | None:
        matching = self.runs(kind=kind, name=name)
        return matching[-1] if matching else None

    def find(self, run_id: str) -> RunRecord | None:
        """Look a record up by id or unique id prefix (latest wins)."""
        matching = [r for r in self.load() if r.run_id.startswith(run_id)]
        return matching[-1] if matching else None


# -- comparison and the regression gate -----------------------------------


def diff_records(base: RunRecord, run: RunRecord) -> dict[str, dict]:
    """Per-metric deltas between two runs (quality row + wall clock)."""
    out: dict[str, dict] = {}
    a, b = base.quality_row, run.quality_row
    for key in sorted(set(a) | set(b)):
        old = a.get(key, 0) or 0
        new = b.get(key, 0) or 0
        delta = new - old
        out[key] = {
            "base": old,
            "run": new,
            "delta": round(delta, 6),
            "pct": round(100.0 * delta / old, 2) if old else None,
        }
    return out


@dataclass(frozen=True)
class Regression:
    """One tolerance violation found by the gate."""

    name: str  # workload / baseline name
    metric: str
    baseline: float
    actual: float
    limit: float
    kind: str  # "quality" | "time"

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.metric} regressed "
            f"{self.baseline:g} -> {self.actual:g} (limit {self.limit:g})"
        )


def quality_limit(baseline: float, tolerance: float) -> float:
    """Highest acceptable value for a lower-is-better quality metric."""
    return baseline * (1.0 + tolerance)


def time_limit(baseline: float, tolerance: float, floor: float) -> float:
    """Highest acceptable wall time: relative tolerance plus an absolute
    floor so microsecond-scale baselines don't flake on scheduler noise."""
    return baseline * (1.0 + tolerance) + floor


def check_regressions(
    baseline: dict,
    record: RunRecord,
    *,
    quality_tolerance: float = 0.0,
    time_tolerance: float = 2.0,
    time_floor: float = 0.5,
) -> list[Regression]:
    """Compare one run against a baseline dict (``metrics`` +
    ``wall_seconds``); returns every violated tolerance (empty = pass).

    Quality metrics (:data:`QUALITY_METRICS`) are lower-is-better and
    gated at ``baseline * (1 + quality_tolerance)``; improvements always
    pass.  Wall time is gated at
    ``baseline * (1 + time_tolerance) + time_floor``.
    """
    name = str(baseline.get("name", record.name))
    base_metrics = baseline.get("metrics", {})
    violations: list[Regression] = []
    for metric in QUALITY_METRICS:
        if metric not in base_metrics:
            continue
        base = float(base_metrics[metric])
        actual = float(record.metrics.get(metric, 0))
        limit = quality_limit(base, quality_tolerance)
        if actual > limit + 1e-9:
            violations.append(
                Regression(name, metric, base, actual, limit, "quality")
            )
    base_wall = baseline.get("wall_seconds")
    if base_wall is not None and record.wall_seconds:
        limit = time_limit(float(base_wall), time_tolerance, time_floor)
        if record.wall_seconds > limit:
            violations.append(
                Regression(
                    name,
                    "wall_seconds",
                    float(base_wall),
                    record.wall_seconds,
                    round(limit, 6),
                    "time",
                )
            )
    return violations
