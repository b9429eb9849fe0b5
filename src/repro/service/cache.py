"""Content-addressed result cache for generation jobs.

Results are stored on disk keyed by :attr:`JobSpec.digest`.  Each entry is
a directory ``<root>/<digest[:2]>/<digest>`` holding

* ``diagram.es`` — the routed diagram in the ESCHER interchange format
  (the same bytes the batch CLI emits), and
* ``result.json`` — a compact JSON sidecar with the :data:`RESULT_KEYS`
  of the result (status, metrics, timing row and routing outcome), so
  warm hits never recompute anything.

The cache is deliberately forgiving: a corrupt or truncated entry (bad
magic, unparsable JSON, missing file) is evicted on read and counted as a
miss, so a crashed writer can never poison future runs.  An optional
``max_entries`` bound evicts least-recently-used entries on insert.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

from ..faults import fault
from ..formats.escher import MAGIC
from .jobs import JobSpec

DIAGRAM_FILE = "diagram.es"
RESULT_FILE = "result.json"

#: result.json keys every valid entry must carry.
_REQUIRED_KEYS = ("status", "metrics", "timing")

#: The payload keys an entry keeps: what a run made, not how it went.
#: :meth:`ResultCache.put` writes only these and :meth:`ResultCache.get`
#: reads only these, so spans, counters, profile windows, search rows
#: and congestion never reach a sidecar, older sidecars that carry them
#: still read back, and a warm hit never replays a run that never
#: happened.
RESULT_KEYS = (
    "status", "name", "error", "metrics", "timing",
    "failed_nets", "failure_reasons", "seconds",
)


@dataclass
class CacheStats:
    """Counters since this cache object was created."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def as_row(self) -> dict:
        return {**asdict(self), "hit_rate": round(self.hit_rate, 3)}


class ResultCache:
    """Disk-backed map from job digest to generation result payload."""

    def __init__(self, root: str | Path, *, max_entries: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()

    # -- addressing ---------------------------------------------------

    def entry_dir(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def _entries(self) -> list[Path]:
        return [d for shard in self.root.iterdir() if shard.is_dir()
                for d in shard.iterdir() if d.is_dir()]

    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, spec: JobSpec) -> bool:
        return (self.entry_dir(spec.digest) / RESULT_FILE).exists()

    # -- read ---------------------------------------------------------

    def get(self, spec: JobSpec) -> dict | None:
        """The stored result payload for a spec, or ``None`` on miss.

        The returned dict holds the :data:`RESULT_KEYS` that
        :func:`repro.service.scheduler.execute_job` produced plus
        ``escher`` (the diagram text).
        """
        entry = self.entry_dir(spec.digest)
        diagram_path = entry / DIAGRAM_FILE
        result_path = entry / RESULT_FILE
        if not result_path.exists():
            self.stats.misses += 1
            return None
        try:
            fault("cache.read")  # injectable bad-sector read
            sidecar = json.loads(result_path.read_text())
            escher = diagram_path.read_text()
            if not isinstance(sidecar, dict) or any(
                key not in sidecar for key in _REQUIRED_KEYS
            ):
                raise ValueError("result sidecar is missing required keys")
            if not escher.startswith(MAGIC):
                raise ValueError("diagram file lost its ESCHER magic")
        except (OSError, ValueError) as _corruption:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.evict(spec.digest)
            return None
        payload = {key: sidecar[key] for key in RESULT_KEYS if key in sidecar}
        payload["escher"] = escher
        self.stats.hits += 1
        os.utime(entry)  # refresh LRU clock
        return payload

    # -- write --------------------------------------------------------

    def put(self, spec: JobSpec, payload: dict) -> Path:
        """Persist a result payload's ESCHER text and :data:`RESULT_KEYS`;
        returns the entry directory."""
        entry = self.entry_dir(spec.digest)
        entry.mkdir(parents=True, exist_ok=True)
        sidecar = {key: payload[key] for key in RESULT_KEYS if key in payload}
        fault("cache.write")  # injectable disk-full / IO error
        # Each file lands atomically (temp + rename on the same filesystem),
        # and the diagram lands before the sidecar: readers only trust
        # entries whose sidecar exists, so no crash point — mid-file or
        # between files — can expose a truncated entry.
        self._write_atomic(entry / DIAGRAM_FILE, payload.get("escher", ""))
        self._write_atomic(
            entry / RESULT_FILE, json.dumps(sidecar, separators=(",", ":"))
        )
        self.stats.stores += 1
        if self.max_entries is not None:
            self._trim()
        return entry

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """Write-then-rename so a crash mid-write never leaves a
        truncated file at ``path`` for the corruption path to evict."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def evict(self, digest: str) -> bool:
        entry = self.entry_dir(digest)
        if not entry.exists():
            return False
        shutil.rmtree(entry, ignore_errors=True)
        self.stats.evictions += 1
        return True

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for entry in self._entries():
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        self.stats.evictions += removed
        return removed

    def _trim(self) -> None:
        entries = self._entries()
        excess = len(entries) - (self.max_entries or 0)
        if excess <= 0:
            return
        entries.sort(key=lambda d: d.stat().st_mtime)
        for stale in entries[:excess]:
            shutil.rmtree(stale, ignore_errors=True)
            self.stats.evictions += 1
