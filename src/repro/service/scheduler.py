"""Batch scheduler: fan jobs across the supervised worker pool.

The unit of work is :func:`execute_job` — a module-level (hence picklable)
function that rebuilds the canonical network from a :class:`JobSpec`
payload, runs the full PABLO→EUREKA pipeline and returns a plain-dict
result (ESCHER text + metrics + timing), which is also exactly what the
:class:`~repro.service.cache.ResultCache` persists.

Every job a cache hit or the serial fast path does not absorb runs on a
:class:`~repro.gateway.pool.WorkerPool` — a borrowed one, or one opened
for the run and closed before it returns — so batch runs get the same
crash safety as the gateway.  The scheduler guarantees:

* **deterministic ordering** — outcomes come back in submission order
  whatever the completion order or worker count;
* **per-job timeouts** — enforced *inside* the worker with ``SIGALRM``,
  with the pool's parent-side kill as the backstop;
* **retry-once on worker crash** — the pool replaces a dead worker and
  runs its job once more; a second death is reported as ``crashed``;
* **progress streaming** — an optional callback fires as each job reaches
  its final outcome, in completion order.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (gateway imports us)
    from ..gateway.pool import WorkerPool

from ..core.diagram import Diagram
from ..core.generator import generate
from ..formats.escher import read_escher, write_escher
from ..obs import get_logger, get_registry, get_tracer, span
from ..obs.congestion import CongestionMap
from ..obs.counters import Registry, set_registry
from ..obs.runlog import RunLog, stages_from_spans
from ..obs.sampler import ensure_sampler, sampler_running
from ..obs.trace import Tracer, current_trace_context, set_tracer
from .cache import ResultCache
from .jobs import JobSpec

#: Final states a job can end in.  "ok" includes runs with unroutable
#: nets (they are reported, not fatal); only "ok" results are cached.
JOB_STATUSES = ("ok", "error", "timeout", "crashed")

ProgressCallback = Callable[["JobOutcome", int, int], None]


class JobTimeout(BaseException):
    """Raised by the alarm handler inside a worker.

    Derives from ``BaseException`` so the pipeline's own ``except
    Exception`` error reporting cannot swallow it.
    """


@dataclass
class JobOutcome:
    """Final result of one scheduled job."""

    spec: JobSpec
    status: str
    payload: dict | None = None
    from_cache: bool = False
    attempts: int = 0
    error: str | None = None

    @classmethod
    def from_payload(cls, spec: JobSpec, payload: dict, attempts: int) -> "JobOutcome":
        """The outcome a worker's result payload reports."""
        return cls(
            spec,
            payload.get("status", "error"),
            payload,
            attempts=attempts,
            error=payload.get("error"),
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def timing(self) -> dict:
        return dict(self.payload.get("timing", {})) if self.payload else {}

    @property
    def metrics(self) -> dict:
        return dict(self.payload.get("metrics", {})) if self.payload else {}

    @property
    def failed_nets(self) -> list[str]:
        return list(self.payload.get("failed_nets", [])) if self.payload else []

    @property
    def failure_reasons(self) -> dict[str, str]:
        """``{net: why}`` for the job's unroutable nets (may be empty for
        payloads produced before reasons were recorded)."""
        return dict(self.payload.get("failure_reasons", {})) if self.payload else {}

    def load_diagram(self) -> Diagram:
        """Rebuild the routed diagram from the ESCHER text in the payload."""
        if not self.payload or "escher" not in self.payload:
            raise ValueError(f"job {self.spec.name!r} has no diagram ({self.status})")
        return read_escher(self.payload["escher"], self.spec.build_network())


def execute_job(payload: dict, progress: Callable[[str], None] | None = None) -> dict:
    """Run one job (a ``JobSpec.to_dict()`` payload) through the pipeline.

    Returns a JSON-able dict; never raises for pipeline errors (they come
    back as ``status: "error"``) so a pool worker survives bad inputs.
    ``progress`` (when the caller supports it — the persistent
    :class:`~repro.gateway.pool.WorkerPool` does) receives per-stage
    notifications that the gateway streams to WebSocket subscribers.
    """
    started = time.perf_counter()
    started_epoch = time.time()
    # The always-on sampler survives across jobs in a pool worker, which
    # starts it at spawn; a job run inline stops the one it started.
    # Each job ships only the profile windows that overlap its own run.
    owns_sampler = not sampler_running()
    sampler = ensure_sampler()
    # Record the job under a private tracer/registry: the spans and
    # counters travel back in the payload and are re-parented into the
    # parent process's trace by the scheduler.
    tracer = Tracer(enabled=True)
    registry = Registry()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(registry)
    # When a gateway request's trace context rode along (installed by the
    # pool's worker loop), stamp its trace id on the root span and the
    # result so the parent can re-parent the spans under the request.
    context = current_trace_context()
    try:
        spec = JobSpec.from_dict(payload)
        root_attrs = {"job": spec.name}
        if context is not None:
            root_attrs["trace_id"] = context.trace_id
        with tracer.span("job", **root_attrs):
            result = generate(
                spec.build_network(), spec.pablo, spec.eureka, progress=progress
            )
        return {
            "status": "ok",
            "name": spec.name,
            **({"trace_id": context.trace_id} if context is not None else {}),
            "escher": write_escher(result.diagram),
            "metrics": dict(result.metrics.as_row()),
            "timing": dict(result.timing_row),
            "failed_nets": [str(n) for n in result.routing.failed_nets],
            "failure_reasons": {
                net: reason.value
                for net, reason in result.routing.failure_reasons.items()
            },
            "congestion": CongestionMap.from_diagram(result.diagram).to_dict(),
            "search": dict(getattr(result.routing, "search_detail", {}) or {}),
            "seconds": round(time.perf_counter() - started, 4),
            "trace": tracer.export_roots(),
            "counters": registry.snapshot(),
            "profile": (
                sampler.export(since=started_epoch) if sampler is not None else []
            ),
        }
    except Exception as exc:  # noqa: BLE001 — worker must not die on bad jobs
        return error_payload(
            payload,
            "error",
            f"{type(exc).__name__}: {exc}",
            round(time.perf_counter() - started, 4),
        )
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)
        if owns_sampler and sampler is not None:
            sampler.stop()


def error_payload(
    payload: dict, status: str, error: str, seconds: float = 0.0
) -> dict:
    """The result of a job that made no artwork: its ``status`` and
    ``error``, empty metrics and timing, and the ``seconds`` it took."""
    return {
        "status": status,
        "name": payload.get("name", "?"),
        "error": error,
        "metrics": {},
        "timing": {},
        "seconds": seconds,
    }


def _alarm(_signum, _frame):  # pragma: no cover - fires inside workers
    raise JobTimeout()


def run_with_timeout(worker, timeout: float | None, payload: dict) -> dict:
    """Top-level worker wrapper enforcing a wall-clock budget via SIGALRM."""
    if not timeout or not hasattr(signal, "SIGALRM"):
        return worker(payload)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return worker(payload)
    except JobTimeout:
        return error_payload(
            payload, "timeout", f"exceeded {timeout:g}s budget", timeout
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def record_outcome(
    outcome: JobOutcome,
    *,
    kind: str,
    registry: Registry,
    runlog: RunLog | None,
    extra: dict,
) -> None:
    """Fold one finished job into the ``service.*`` counters and append
    its run record.

    Batch runs (``kind="job"``) and the gateway (``kind="serve"``) share
    this: the counters land in the caller's ``registry`` and in the
    process-global one, fresh jobs also merge their worker-side counters
    there, and ``extra`` carries the caller's own record fields.
    """
    payload = outcome.payload or {}
    job_wall = float(payload.get("seconds", 0.0) or 0.0)
    worker_counters = payload.get("counters")
    for reg in (registry, get_registry()):
        reg.inc("service.jobs")
        reg.inc(f"service.status.{outcome.status}")
        reg.inc("service.cache_hits" if outcome.from_cache else "service.cache_misses")
        if not outcome.from_cache:
            # Job wall time as a histogram so percentiles land in the
            # run registry, not just the human-readable report dict.
            reg.observe("service.job_wall_s", job_wall)
            if worker_counters:
                reg.merge(worker_counters)
    if runlog is None:
        return
    runlog.record(
        kind=kind,
        name=outcome.spec.name,
        wall_seconds=job_wall,
        spec_digest=outcome.spec.digest,
        stages=stages_from_spans(payload.get("trace") or []),
        counters=worker_counters or {"counters": {}, "histograms": {}},
        metrics=outcome.metrics,
        failures={
            net: {"reason": reason}
            for net, reason in (payload.get("failure_reasons") or {}).items()
        },
        congestion=dict(payload.get("congestion", {}) or {}),
        profile="",
        profile_windows=list(payload.get("profile") or []),
        extra={
            "status": outcome.status,
            "from_cache": outcome.from_cache,
            "attempts": outcome.attempts,
            **extra,
            **({"search": payload["search"]} if payload.get("search") else {}),
        },
    )


@dataclass
class BatchScheduler:
    """Fan a batch of :class:`JobSpec` s over a worker pool.

    ``worker`` must be a picklable module-level callable taking the job
    payload dict and returning a result dict — :func:`execute_job` unless
    a test (or an alternative pipeline) substitutes its own.
    """

    max_workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    timeout: float | None = None
    cache: ResultCache | None = None
    worker: Callable[[dict], dict] = execute_job
    #: Aggregate of every fresh job's worker-side counters, merged as the
    #: outcomes land (cache hits contribute nothing — no work was done).
    counters: Registry = field(default_factory=Registry)
    #: When set, the parent appends one RunRecord per job as outcomes
    #: land (the workers never touch the registry file themselves).
    runlog: RunLog | None = None
    #: A warm :class:`~repro.gateway.pool.WorkerPool` to dispatch on
    #: instead of opening one per :meth:`run`.  The pool is *borrowed*:
    #: its worker/timeout settings govern execution and the caller owns
    #: its lifecycle (``artwork-batch --keep-warm`` reuses one pool
    #: across manifests this way).
    pool: "WorkerPool | None" = None
    #: Seconds the probe job may take for the batch to stay in the parent.
    #: Unless this is 0/None, the first pending job always runs in the
    #: parent as a probe; if it finishes within the budget the rest run
    #: serially there too, otherwise the rest fan out to the pool.  This
    #: does not make the serial path the faster one: a cold multi-worker
    #: batch can beat it (README, "Batch generation and caching").  Only
    #: engages for the stock :func:`execute_job` worker.
    serial_threshold: float | None = 0.03

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    def run(
        self,
        specs: Sequence[JobSpec],
        progress: ProgressCallback | None = None,
    ) -> list[JobOutcome]:
        """Execute every spec; outcomes are returned in submission order."""
        specs = list(specs)
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        done = 0

        def finish(index: int, outcome: JobOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            self._record(outcome)
            if (
                self.cache is not None
                and outcome.ok
                and not outcome.from_cache
            ):
                try:
                    self.cache.put(specs[index], outcome.payload)
                except OSError:
                    # A failed store costs the cache entry, not the batch.
                    self.counters.inc("service.cache_errors")
                    get_registry().inc("service.cache_errors")
            if progress is not None:
                progress(outcome, done, len(specs))

        with span("batch.run", jobs=len(specs), workers=self.max_workers):
            pending: list[int] = []
            for i, spec in enumerate(specs):
                payload = self.cache.get(spec) if self.cache is not None else None
                if payload is not None:
                    finish(
                        i, JobOutcome(spec, payload["status"], payload, from_cache=True)
                    )
                else:
                    pending.append(i)

            if self.pool is not None:
                self._run_on_pool(self.pool, specs, pending, finish)
            else:
                pending = self._serial_fast_path(specs, pending, finish)
                if pending:
                    # Imported here: the gateway package imports this module.
                    from ..gateway.pool import WorkerPool

                    with WorkerPool(
                        min(self.max_workers, len(pending)),
                        worker=self.worker,
                        timeout=self.timeout,
                    ) as pool:
                        self._run_on_pool(pool, specs, pending, finish)

        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def _record(self, outcome: JobOutcome) -> None:
        """Fold one outcome's telemetry into the parent-process obs state:
        counters and the run record via :func:`record_outcome`, and worker
        spans re-parented into the live trace."""
        record_outcome(
            outcome,
            kind="job",
            registry=self.counters,
            runlog=self.runlog,
            extra={"error": outcome.error or ""},
        )
        payload = outcome.payload or {}
        tracer = get_tracer()
        if tracer.enabled:
            job_label = f"job:{outcome.spec.name}"
            roots = payload.get("trace") or []
            if roots and not outcome.from_cache:
                for root in roots:
                    tracer.adopt(root, label=job_label)
            else:
                with tracer.span(job_label, status=outcome.status,
                                 cached=outcome.from_cache):
                    pass
        if not outcome.ok:
            get_logger("service.scheduler").warning(
                "job did not finish ok",
                extra={
                    "fields": {
                        "job": outcome.spec.name,
                        "status": outcome.status,
                        "error": outcome.error or "",
                    }
                },
            )

    def _run_on_pool(
        self,
        pool: "WorkerPool",
        specs: Sequence[JobSpec],
        indices: list[int],
        finish: Callable[[int, JobOutcome], None],
    ) -> None:
        """Run ``indices`` on ``pool``, finishing each job as it lands.

        The pool owns timeouts and crash retry: a job whose worker died
        on both attempts comes back as a ``status: "crashed"`` payload.
        Its completion callbacks fire on the pool's collector thread and
        only hand results over, so cache writes, run records and trace
        adoption stay on the calling thread.
        """
        landed: queue.SimpleQueue[tuple[int, dict, int]] = queue.SimpleQueue()
        # Without a budget of our own, defer to the pool's configured one.
        budget = {} if self.timeout is None else {"timeout": self.timeout}
        for i in indices:
            pool.submit(
                specs[i].to_dict(),
                callback=lambda payload, attempts, i=i: landed.put(
                    (i, payload, attempts)
                ),
                **budget,
            )
        for _ in indices:
            i, payload, attempts = landed.get()
            finish(i, JobOutcome.from_payload(specs[i], payload, attempts))

    def _run_inline(self, payload: dict) -> dict:
        """Run one job in the parent process (the serial fast path).

        ``SIGALRM`` timeouts only work on the main thread; elsewhere the
        job simply runs unbudgeted — acceptable because the fast path
        only engages after a probe proved jobs finish in milliseconds.
        """
        if threading.current_thread() is threading.main_thread():
            return run_with_timeout(self.worker, self.timeout, payload)
        return self.worker(payload)

    def _serial_fast_path(
        self,
        specs: Sequence[JobSpec],
        indices: list[int],
        finish: Callable[[int, JobOutcome], None],
    ) -> list[int]:
        """Probe the first pending job in-parent; when it proves cheaper
        than a process spawn, drain the whole batch serially.  Returns the
        indices still pending for the pool (empty when drained).

        Restricted to the stock :func:`execute_job` worker: substituted
        test workers may crash on purpose (``os._exit``), which must stay
        inside a child process.
        """
        if (
            not indices
            or not self.serial_threshold
            or self.worker is not execute_job
        ):
            return indices
        probe, rest = indices[0], indices[1:]
        with span("batch.serial_probe", job=specs[probe].name):
            started = time.perf_counter()
            payload = self._run_inline(specs[probe].to_dict())
            probe_wall = time.perf_counter() - started
        finish(probe, JobOutcome.from_payload(specs[probe], payload, 1))
        if probe_wall > self.serial_threshold:
            return rest  # real work: fan the remainder out to processes
        for reg in (self.counters, get_registry()):
            reg.inc("service.serial_fast_path")
        for i in rest:
            payload = self._run_inline(specs[i].to_dict())
            finish(i, JobOutcome.from_payload(specs[i], payload, 1))
        return []
