"""Process-local metrics registry: counters and histograms, zero deps.

The routing/placement hot paths record *events* here — expansions per
net, claimpoints placed and released, retry attempts, per-reason failure
counts, cache hits/misses — cheaply enough to leave on all the time
(one dict update per event under the GIL).

A :class:`Registry` snapshots to a plain JSON-able dict and *merges*
snapshots from other registries, which is how per-worker counters from
the batch scheduler's process pool aggregate back into the parent run.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field

#: Reservoir bound per histogram: enough for stable p95/p99 estimates
#: while keeping worker->parent snapshots small.
RESERVOIR_SIZE = 256


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (q in 0..1)."""
    if not ordered:
        return 0.0
    k = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[k]


@dataclass
class Histogram:
    """Streaming summary of an observed value.

    Exact count/sum/min/max plus a bounded reservoir sample for
    percentile estimates (exact up to :data:`RESERVOIR_SIZE`
    observations).  The reservoir travels in :meth:`as_dict` snapshots,
    so p50/p95/p99 survive the cross-process merge the batch scheduler
    does — not just count/sum/mean.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: list[float] = field(default_factory=list)
    #: How many values the reservoir has been offered (merge included);
    #: drives algorithm-R replacement, seeded so runs are reproducible.
    _seen: int = field(default=0, repr=False)
    _rng: random.Random = field(
        default_factory=lambda: random.Random(0x5EED), repr=False, compare=False
    )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._sample(value)

    def _sample(self, value: float) -> None:
        self._seen += 1
        if len(self.samples) < RESERVOIR_SIZE:
            self.samples.append(value)
        else:
            j = self._rng.randrange(self._seen)
            if j < RESERVOIR_SIZE:
                self.samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate from the reservoir (q in 0..1)."""
        return percentile(sorted(self.samples), q)

    def as_dict(self) -> dict:
        if not self.count:
            return {
                "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "samples": [],
            }
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
            "p50": round(percentile(ordered, 0.50), 6),
            "p95": round(percentile(ordered, 0.95), 6),
            "p99": round(percentile(ordered, 0.99), 6),
            "samples": [round(v, 6) for v in self.samples],
        }

    def merge(self, data: "Histogram | dict") -> None:
        if isinstance(data, Histogram):
            data = data.as_dict()
        count = int(data.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(data.get("total", 0.0))
        self.min = min(self.min, float(data.get("min", self.min)))
        self.max = max(self.max, float(data.get("max", self.max)))
        for value in data.get("samples", ()):
            self._sample(float(value))


class Registry:
    """A named bag of counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording (hot path: one dict update under the GIL) -----------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        return self.histograms.get(name, Histogram())

    # -- aggregation ---------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able view: ``{"counters": {...}, "histograms": {...}}``."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "histograms": {k: h.as_dict() for k, h in self.histograms.items()},
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + int(value)
            for name, data in snapshot.get("histograms", {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram()
                hist.merge(data)

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.histograms.clear()

    def report(self) -> str:
        """Aligned text dump (the ``--profile`` footer)."""
        snap = self.snapshot()
        lines = []
        names = list(snap["counters"]) + list(snap["histograms"])
        width = max((len(n) for n in names), default=0)
        for name in sorted(snap["counters"]):
            lines.append(f"{name:<{width}}  {snap['counters'][name]}")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            lines.append(
                f"{name:<{width}}  count={h['count']} mean={h['mean']:g} "
                f"min={h['min']:g} max={h['max']:g} "
                f"p50={h['p50']:g} p95={h['p95']:g} p99={h['p99']:g}"
            )
        return "\n".join(lines)


#: The process-global registry the pipeline records into.
_REGISTRY = Registry()


def get_registry() -> Registry:
    return _REGISTRY


def set_registry(registry: Registry) -> Registry:
    """Install ``registry`` as the process-global one; returns the old."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    return previous


def inc(name: str, value: int = 1) -> None:
    _REGISTRY.inc(name, value)


def observe(name: str, value: float) -> None:
    _REGISTRY.observe(name, value)
