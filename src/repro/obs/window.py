"""Windowed RED telemetry: a lock-cheap ring of time buckets.

The lifetime counters in :mod:`repro.obs.counters` answer "how many
ever"; operating a gateway needs "what is the p95 *right now*".  A
:class:`RollingWindow` keeps, per series key (an endpoint, a pipeline
stage), a fixed ring of time buckets — each bucket covers ``bucket_s``
seconds and holds an event count, an error count, a duration sum and a
bounded duration sample.  Recording is O(1) under one lock (a dict
probe plus a few adds); memory is strictly bounded by
``keys × slots × max_samples``.

:meth:`RollingWindow.snapshot` aggregates the trailing buckets into the
classic RED view — rate (qps), error ratio, duration p50/p95 — over any
set of windows (1m/5m/15m by default).  The ring holds one slot more
than the horizon needs, so the current partially-filled bucket never
overwrites the oldest one still inside the longest window.

The clock is injectable, so tests rotate windows deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Iterable

from .counters import percentile

#: The default reporting windows: label -> trailing seconds.
WINDOWS: dict[str, float] = {"1m": 60.0, "5m": 300.0, "15m": 900.0}

#: Empty aggregate (what an idle series reports for a window).
_ZERO = {
    "count": 0,
    "errors": 0,
    "qps": 0.0,
    "error_ratio": 0.0,
    "mean": 0.0,
    "p50": 0.0,
    "p95": 0.0,
    "max": 0.0,
}


class _Bucket:
    """One time slot of one series."""

    __slots__ = ("stamp", "count", "errors", "total", "samples")

    def __init__(self, stamp: int) -> None:
        self.stamp = stamp  # absolute slot index; stale buckets are reused
        self.count = 0
        self.errors = 0
        self.total = 0.0
        self.samples: list[float] = []


class RollingWindow:
    """Per-key rings of time buckets with RED aggregation.

    ``horizon_s`` bounds the longest answerable window, ``bucket_s`` the
    rotation granularity, ``max_samples`` the per-bucket duration sample
    (replacement is stride-based: cheap, deterministic, spread across
    the bucket's lifetime).
    """

    def __init__(
        self,
        *,
        horizon_s: float = 900.0,
        bucket_s: float = 5.0,
        max_samples: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if horizon_s <= 0 or bucket_s <= 0:
            raise ValueError("horizon_s and bucket_s must be positive")
        if bucket_s > horizon_s:
            raise ValueError("bucket_s cannot exceed horizon_s")
        if max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        self.horizon_s = float(horizon_s)
        self.bucket_s = float(bucket_s)
        self.max_samples = max_samples
        self.clock = clock
        #: One extra slot so the current partial bucket never evicts the
        #: oldest bucket still covered by the horizon.
        self.slots = int(math.ceil(horizon_s / bucket_s)) + 1
        self._lock = threading.Lock()
        self._series: dict[str, list[_Bucket | None]] = {}

    # -- recording (hot path) -------------------------------------------

    def observe(self, key: str, seconds: float, *, error: bool = False) -> None:
        """Record one event for ``key``: its duration and error flag."""
        slot = int(self.clock() // self.bucket_s)
        with self._lock:
            ring = self._series.get(key)
            if ring is None:
                ring = self._series[key] = [None] * self.slots
            index = slot % self.slots
            bucket = ring[index]
            if bucket is None or bucket.stamp != slot:
                bucket = ring[index] = _Bucket(slot)
            bucket.count += 1
            if error:
                bucket.errors += 1
            bucket.total += seconds
            if len(bucket.samples) < self.max_samples:
                bucket.samples.append(seconds)
            else:
                bucket.samples[(bucket.count - 1) % self.max_samples] = seconds

    # -- aggregation ----------------------------------------------------

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def window(self, window_s: float, *, keys: Iterable[str] | None = None) -> dict[str, dict]:
        """RED aggregate of the trailing ``window_s`` seconds per key."""
        window_s = min(float(window_s), self.horizon_s)
        span = max(1, int(math.ceil(window_s / self.bucket_s)))
        newest = int(self.clock() // self.bucket_s)
        oldest = newest - span  # exclusive: stamps in (oldest, newest]
        out: dict[str, dict] = {}
        with self._lock:
            wanted = self._series if keys is None else {
                k: self._series[k] for k in keys if k in self._series
            }
            for key, ring in wanted.items():
                count = errors = 0
                total = peak = 0.0
                samples: list[float] = []
                for bucket in ring:
                    if bucket is None or not (oldest < bucket.stamp <= newest):
                        continue
                    count += bucket.count
                    errors += bucket.errors
                    total += bucket.total
                    if bucket.samples:
                        samples.extend(bucket.samples)
                        peak = max(peak, max(bucket.samples))
                if not count:
                    out[key] = dict(_ZERO)
                    continue
                samples.sort()
                out[key] = {
                    "count": count,
                    "errors": errors,
                    "qps": round(count / window_s, 6),
                    "error_ratio": round(errors / count, 6),
                    "mean": round(total / count, 6),
                    "p50": round(percentile(samples, 0.50), 6),
                    "p95": round(percentile(samples, 0.95), 6),
                    "max": round(peak, 6),
                }
        return out

    def snapshot(self, windows: dict[str, float] | None = None) -> dict[str, dict[str, dict]]:
        """``{key: {window label: RED aggregate}}`` for every series."""
        windows = WINDOWS if windows is None else windows
        per_window = {label: self.window(seconds) for label, seconds in windows.items()}
        out: dict[str, dict[str, dict]] = {}
        for label, table in per_window.items():
            for key, stats in table.items():
                out.setdefault(key, {})[label] = stats
        return out
