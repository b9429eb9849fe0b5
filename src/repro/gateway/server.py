"""``artwork-serve``: the persistent asyncio gateway over a warm pool.

One process, two planes:

* the **asyncio plane** (this module) — an HTTP/1.1 + WebSocket front
  end built on :mod:`repro.gateway.protocol`, owning the job table,
  auth, rate limiting, backpressure and the observability endpoints;
* the **worker plane** — a :class:`~repro.gateway.pool.WorkerPool` of
  forked-once processes that keep ``repro`` imports warm and execute
  :func:`~repro.service.scheduler.execute_job` payloads.

Endpoints::

    POST /v1/jobs             submit a JobSpec JSON -> {"id": ...}
                              (content-digest dedup against the result
                              cache and against in-flight jobs)
    GET  /v1/jobs             recent jobs, newest first
    GET  /v1/jobs/{id}        status + metrics row (?wait=SECONDS to
                              long-poll for completion)
    GET  /v1/jobs/{id}/result the result payload: ESCHER text, metrics,
                              timing, failures, worker counters and
                              trace id (profile windows, search rows
                              and congestion go to the run record)
    GET  /v1/jobs/{id}/svg    rendered artwork (image/svg+xml)
    GET  /v1/jobs/{id}/trace  the request's span tree as Chrome trace
                              JSON (gateway -> queue -> worker stages)
    WS   /v1/jobs/{id}/events streamed progress: queued -> running ->
                              stage:placement -> stage:routing -> done
    GET  /v1/stats            windowed RED telemetry (1m/5m/15m qps,
                              error %, p50/p95) + live gauges + the
                              always-on profiler snapshot, JSON
    POST /v1/profile          on-demand high-hz capture (?seconds=N);
                              returns a self-contained flamegraph HTML
    GET  /healthz             worker liveness + queue depth (always open)
    GET  /metrics             Prometheus text from the obs registry

Every request carries a trace id — taken from an incoming
``traceparent`` header or minted here — echoed as ``X-Request-Id`` on
responses (WebSocket handshakes included), stamped on progress events,
log lines and run records, and threaded through the worker pool so the
spans a worker ships back re-parent under the request's root span.

Completed jobs are folded into the obs registry exactly like the batch
scheduler does (worker counters merged, ``service.job_wall_s``
observed) and each served job appends a ``kind="serve"`` RunRecord so
``artwork-inspect`` reports and regression gates cover service traffic.
On SIGTERM the CLI drains: submissions get 503, in-flight jobs finish
(bounded by ``drain_grace``), workers retire, then the loop exits.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

from .. import __version__
from ..core.netlist import NetlistError
from ..faults import get_faults
from ..formats.escher import read_escher
from ..obs import Registry, RunLog, get_logger, get_registry, span
from ..obs.prometheus import render_prometheus
from ..obs.runlog import stages_from_spans
from ..obs.sampler import (
    CAPTURE_HZ,
    capture,
    ensure_sampler,
    get_sampler,
    label_thread,
    render_flamegraph_html,
    sampler_running,
)
from ..obs.trace import (
    Span,
    TraceContext,
    chrome_trace_document,
    trace_context_from_headers,
)
from ..obs.window import WINDOWS, RollingWindow
from ..render.svg import render_svg
from ..service.cache import ResultCache
from ..service.jobs import JobError, JobSpec
from ..service.scheduler import JobOutcome, record_outcome
from .auth import TokenAuth
from .journal import JobJournal
from .pool import PoolClosedError, WorkerPool
from .protocol import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    HTTPRequest,
    ProtocolError,
    json_body,
    read_request,
    render_response,
    ws_encode_frame,
    ws_handshake_response,
    ws_read_frame,
)
from .rate_limit import RateLimiter

#: Longest ``?wait=`` long-poll the server will hold a request open for.
MAX_WAIT_S = 60.0

#: Longest on-demand profile capture (``POST /v1/profile?seconds=``).
MAX_PROFILE_S = 30.0

#: Job states that will never change again.
TERMINAL = ("ok", "error", "timeout", "crashed", "cancelled")

#: Pipeline span names fed into the per-stage rolling windows (the
#: coarse stages an operator watches — per-net spans stay out, they
#: would dwarf everything else in cardinality).
STAGE_WINDOW_SPANS = frozenset({
    "pablo.place", "pablo.partitioning", "pablo.box_formation",
    "pablo.module_placement", "pablo.box_placement",
    "pablo.partition_placement", "pablo.terminal_placement",
    "eureka.route", "eureka.plane", "eureka.claims",
    "eureka.first_pass", "eureka.ripup",
})

#: Worker telemetry a finished job drops once its run record, the stage
#: windows and the slow exemplar have it.  ``counters`` and ``trace``
#: stay: ``/result`` and ``/trace`` serve them.
RECORDED_KEYS = ("profile", "search", "congestion")

_SERVER = f"artwork-serve/{__version__}"

#: Jitter source for Retry-After hints (module-level so tests can seed it).
_retry_rng = random.Random()


def _retry_after(seconds: float) -> str:
    """A ``Retry-After`` value with additive jitter (up to +50% plus one
    second) so a burst of rejected clients doesn't retry in lockstep.
    Never below the hinted wait — a 429's token really does need that
    long to exist — and never below 1."""
    jittered = seconds + _retry_rng.uniform(0.0, seconds * 0.5 + 1.0)
    return str(max(1, round(jittered)))


def _walk_span_dicts(roots: list) -> Iterator[dict]:
    """Depth-first walk over serialized span-tree dicts."""
    stack = [r for r in roots if isinstance(r, dict)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node.get("children", []) if isinstance(c, dict))


@dataclass
class GatewayConfig:
    """Everything ``artwork-serve`` is configured by."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on gateway.port
    workers: int = 1
    job_timeout: float | None = 120.0
    auth: TokenAuth = field(default_factory=TokenAuth)
    rate_limit: RateLimiter | None = None
    #: Jobs allowed to wait in the pool backlog before submissions 503.
    max_queue: int = 64
    cache: ResultCache | None = None
    runlog: RunLog | None = None
    #: Write-ahead journal of accepted jobs; replayed on boot so queued
    #: and in-flight work survives a restart or SIGKILL.
    journal: JobJournal | None = None
    drain_grace: float = 10.0
    max_body: int = 4 * 1024 * 1024
    #: Finished jobs kept for status/result queries (oldest evicted).
    max_finished_jobs: int = 4096
    #: Jobs whose end-to-end gateway latency reaches this many seconds
    #: persist their full span tree to the runlog as ``kind="slow"``
    #: exemplars (``None`` disables capture; ``0.0`` captures everything).
    slow_threshold: float | None = 1.0


@dataclass
class Response:
    """What a route handler returns; the connection loop serializes it."""

    status: int
    body: bytes | str = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def _json_response(status: int, data: dict | list, **headers: str) -> Response:
    return Response(status, json_body(data), headers=dict(headers))


def _error(status: int, message: str, **headers: str) -> Response:
    return _json_response(status, {"error": message}, **headers)


@dataclass
class RequestContext:
    """Per-request state the connection loop threads through dispatch:
    the trace identity plus gateway-side timing breakdowns."""

    trace: TraceContext
    #: Gateway-side phase durations (``auth_s``, ``parse_s``) measured
    #: as the request moves through dispatch.
    timings: dict[str, float] = field(default_factory=dict)


class ServedJob:
    """Gateway-side record of one submitted job."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        digest: str,
        *,
        trace: TraceContext | None = None,
        received_at: float | None = None,
        gw_timings: dict[str, float] | None = None,
        deadline: float | None = None,
    ):
        self.id = job_id
        self.spec = spec
        self.digest = digest
        self.status = "queued"
        self.payload: dict | None = None
        self.from_cache = False
        self.attempts = 0
        #: Absolute epoch deadline the client set (None = unbounded).
        self.deadline = deadline
        #: True when this job was resurrected from the journal on boot.
        self.replayed = False
        #: When the submitting HTTP request hit the socket (root span start).
        self.received_at = time.time() if received_at is None else received_at
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.trace = trace
        self.gw_timings = dict(gw_timings or {})
        self.events: list[dict] = []
        self.subscribers: set[asyncio.Queue] = set()
        self.done = asyncio.Event()

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None

    def add_event(self, event: str, **data) -> None:
        entry = {"seq": len(self.events), "event": event, "job": self.id, **data}
        if self.trace is not None:
            entry.setdefault("trace", self.trace.trace_id)
        self.events.append(entry)
        for queue in self.subscribers:
            queue.put_nowait(entry)

    def summary(self) -> dict:
        payload = self.payload or {}
        body = {
            "id": self.id,
            "name": self.spec.name,
            "digest": self.digest,
            "status": self.status,
            "cached": self.from_cache,
            "attempts": self.attempts,
            "trace_id": self.trace_id,
            "deadline": self.deadline,
            "replayed": self.replayed,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
            "links": {
                "self": f"/v1/jobs/{self.id}",
                "result": f"/v1/jobs/{self.id}/result",
                "svg": f"/v1/jobs/{self.id}/svg",
                "events": f"/v1/jobs/{self.id}/events",
                "trace": f"/v1/jobs/{self.id}/trace",
            },
        }
        if self.finished:
            body["seconds"] = payload.get("seconds", 0.0)
            body["metrics"] = payload.get("metrics", {})
            body["timing"] = payload.get("timing", {})
            body["failed_nets"] = payload.get("failed_nets", [])
            if payload.get("error"):
                body["error"] = payload["error"]
        return body

    # -- the per-request span tree --------------------------------------

    def trace_tree(self) -> Span | None:
        """The job's whole life as one span tree: the gateway request at
        the root, auth/parse/queue-wait/worker-exec beneath it, and the
        worker-shipped pipeline spans re-parented under ``worker.exec``
        (shifted from the worker's private timebase onto this one).
        All starts are wall-clock epoch seconds."""
        if not self.finished or self.finished_at is None:
            return None
        root = Span(
            name="gateway.request",
            start=self.received_at,
            duration=max(0.0, self.finished_at - self.received_at),
            attrs={
                "trace_id": self.trace_id or "",
                "method": "POST",
                "path": "/v1/jobs",
                "job": self.id,
                "name": self.spec.name,
                "status": self.status,
                "cached": self.from_cache,
            },
        )
        cursor = self.received_at
        for phase in ("auth", "parse"):
            seconds = float(self.gw_timings.get(f"{phase}_s", 0.0) or 0.0)
            if seconds > 0.0:
                root.children.append(
                    Span(name=f"gateway.{phase}", start=cursor, duration=seconds)
                )
                cursor += seconds
        if self.from_cache:
            root.children.append(
                Span(
                    name="cache.hit",
                    start=self.submitted_at,
                    duration=max(0.0, self.finished_at - self.submitted_at),
                )
            )
            return root
        exec_start = self.started_at if self.started_at is not None else self.finished_at
        worker_roots = [
            Span.from_dict(d)
            for d in (self.payload or {}).get("trace") or []
            if isinstance(d, dict)
        ]
        if worker_roots:
            # ``started_at`` is stamped when the event loop *notices* the
            # pool's dispatched marker, which can lag the worker's actual
            # start; if the shipped forest is wider than the observed exec
            # window, pull exec start back so the forest still ends by
            # ``finished_at`` (the hard wall-clock bound).
            extent = max(r.start + r.duration for r in worker_roots) - min(
                r.start for r in worker_roots
            )
            exec_start = max(
                self.submitted_at, min(exec_start, self.finished_at - extent)
            )
        root.children.append(
            Span(
                name="queue.wait",
                start=self.submitted_at,
                duration=max(0.0, exec_start - self.submitted_at),
            )
        )
        exec_span = Span(
            name="worker.exec",
            start=exec_start,
            duration=max(0.0, self.finished_at - exec_start),
            attrs={"attempts": self.attempts},
        )
        if worker_roots:
            # One shift for the whole forest keeps the worker spans'
            # relative timing intact while anchoring them at exec start.
            offset = exec_start - min(r.start for r in worker_roots)
            exec_span.children.extend(r.shifted(offset) for r in worker_roots)
        root.children.append(exec_span)
        return root


class ArtworkGateway:
    """The daemon: connection handling, job table, worker pool glue."""

    def __init__(self, config: GatewayConfig | None = None, *, pool: WorkerPool | None = None):
        self.config = config or GatewayConfig()
        self.pool = pool or WorkerPool(
            self.config.workers, timeout=self.config.job_timeout
        )
        #: Gateway-local registry backing ``/metrics`` (also mirrored into
        #: the process-global registry, like the batch scheduler does).
        self.registry = Registry()
        #: Rolling RED windows: per endpoint (every HTTP response) and per
        #: pipeline stage (fed as jobs finish).  Swappable attributes so
        #: tests can inject fake-clock windows.
        self.windows = RollingWindow()
        self.stage_windows = RollingWindow()
        self.log = get_logger("gateway")
        self.port: int | None = None
        self.started_at = 0.0
        self._jobs: dict[str, ServedJob] = {}
        self._by_digest: dict[str, str] = {}
        self._finished_ids: list[str] = []
        self._job_counter = itertools.count(1)
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._stopped = asyncio.Event()
        # The always-on sampler if :meth:`start` started it, to stop on stop.
        self._own_sampler = None
        self._routes = [
            ("POST", re.compile(r"^/v1/jobs$"), "/v1/jobs", self._post_job),
            ("GET", re.compile(r"^/v1/jobs$"), "/v1/jobs", self._list_jobs),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)$"), "/v1/jobs/{id}", self._job_status),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)/result$"), "/v1/jobs/{id}/result",
             self._job_result),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)/svg$"), "/v1/jobs/{id}/svg",
             self._job_svg),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)/trace$"), "/v1/jobs/{id}/trace",
             self._job_trace),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)/events$"), "/v1/jobs/{id}/events",
             self._job_events_poll),
            ("GET", re.compile(r"^/v1/stats$"), "/v1/stats", self._stats),
            ("POST", re.compile(r"^/v1/profile$"), "/v1/profile", self._profile),
            ("GET", re.compile(r"^/healthz$"), "/healthz", self._healthz),
            ("GET", re.compile(r"^/metrics$"), "/metrics", self._metrics),
        ]
        self._ws_route = re.compile(r"^/v1/jobs/([^/]+)/events$")

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "ArtworkGateway":
        self._loop = asyncio.get_running_loop()
        # Always-on low-hz profiling of the gateway process itself; the
        # event-loop thread carries no spans while it waits, so label it.
        label_thread("gateway.loop")
        if not sampler_running():
            self._own_sampler = ensure_sampler()
        self.pool.start()
        self._replay_journal()
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self.log.info(
            "gateway up",
            extra={"fields": {"host": self.config.host, "port": self.port,
                              "workers": self.pool.size}},
        )
        return self

    # -- crash recovery --------------------------------------------------

    def _journal_op(self, op, *args, **kwargs) -> None:
        """Apply one journal operation, absorbing journal IO failures:
        durability must degrade before availability does."""
        if self.config.journal is None:
            return
        try:
            op(*args, **kwargs)
        except OSError as exc:
            self._inc("gateway.journal_errors")
            self.log.warning(
                "journal write failed",
                extra={"fields": {"error": str(exc)}},
            )

    def _replay_journal(self) -> None:
        """Resurrect accepted-but-unfinished jobs from the journal.

        Replayed jobs keep their original ids (clients polling across
        the restart still converge) and go back through the normal
        submission path: the content digest first checks the result
        cache — work that actually finished before the crash is served
        from cache, not executed twice — then the pool.  Runs before the
        listening socket opens, so no fresh submission can race a replay.
        """
        journal = self.config.journal
        if journal is None:
            return
        entries = journal.replay()
        seq = journal.max_job_seq()
        if seq:
            self._job_counter = itertools.count(seq + 1)
        replayed = 0
        for entry in entries:
            try:
                spec = JobSpec.from_dict(entry.payload)
            except Exception as exc:  # noqa: BLE001 - a bad record must not block boot
                self._inc("gateway.journal_replay_failed")
                self.log.warning(
                    "journal entry not replayable",
                    extra={"fields": {"job": entry.job_id, "error": str(exc)}},
                )
                self._journal_op(journal.done, entry.job_id, "error")
                continue
            trace = TraceContext.from_dict({"trace_id": entry.trace_id or ""})
            job = ServedJob(
                entry.job_id, spec, entry.digest or spec.digest,
                trace=trace, received_at=entry.accepted_ts or None,
                deadline=entry.deadline,
            )
            job.replayed = True
            if self._resubmit(job):
                replayed += 1
        journal.compact()
        if entries:
            self._inc("gateway.journal_replayed", replayed)
            self.log.info(
                "journal replayed",
                extra={"fields": {"jobs": len(entries), "resubmitted": replayed,
                                  "path": str(journal.path)}},
            )

    def _resubmit(self, job: ServedJob) -> bool:
        """Install a replayed job and route it to cache or pool; returns
        True when it went back to the pool."""
        journal = self.config.journal
        if self.config.cache is not None:
            payload = self._cache_get(job.spec)
            if payload is not None:
                job.from_cache = True
                self._install_job(job)
                job.add_event("queued", cached=True, replayed=True)
                self._finish_job(job, payload, attempts=0)
                return False
        existing_id = self._by_digest.get(job.digest)
        if existing_id is not None:
            # Two live journal entries with one digest (possible only
            # after journal corruption): the earlier replay owns the
            # work, this id is retired.
            self._journal_op(journal.done, job.id, "cancelled")
            return False
        self._install_job(job)
        self._by_digest[job.digest] = job.id
        job.add_event("queued", digest=job.digest, replayed=True)
        self._submit_to_pool(job)
        return True

    def begin_drain(self) -> None:
        self._draining = True

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, finish in-flight jobs,
        retire workers, close connections."""
        self.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Pool close blocks (it joins processes); keep the loop alive so
        # completion callbacks scheduled via call_soon_threadsafe land.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None,
            lambda: self.pool.close(drain=drain, grace=self.config.drain_grace),
        )
        # After the drain every surviving job has journaled its terminal
        # record; compact so the next boot replays only what truly hangs.
        if self.config.journal is not None:
            self._journal_op(self.config.journal.compact)
            self.config.journal.close()
        # Give in-flight responses a beat, then drop idle keep-alives.
        await asyncio.sleep(0.05)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._own_sampler is not None:
            self._own_sampler.stop()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- connection plumbing --------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        peer = writer.get_extra_info("peername") or ("?", 0)
        try:
            while True:
                try:
                    request = await read_request(reader, max_body=self.config.max_body)
                except ProtocolError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            json_body({"error": str(exc)}),
                            headers={"server": _SERVER},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                ctx = RequestContext(trace=trace_context_from_headers(request.headers))
                started = time.perf_counter()
                response = await self._dispatch(
                    request, reader, writer, str(peer[0]), ctx
                )
                if response is None:
                    return  # connection consumed (WebSocket stream)
                self._observe_request(request, response, time.perf_counter() - started)
                headers = {
                    "server": _SERVER,
                    "x-request-id": ctx.trace.trace_id,
                    "traceparent": ctx.trace.traceparent(),
                    **response.headers,
                }
                writer.write(
                    render_response(
                        response.status,
                        response.body,
                        content_type=response.content_type,
                        headers=headers,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # drain in progress
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _route_template(self, request: HTTPRequest) -> str:
        """The request's endpoint label (``"POST /v1/jobs"``-style) for
        the rolling windows — templates, not raw paths, so per-job URLs
        don't explode series cardinality."""
        if (
            request.method == "GET"
            and request.wants_websocket
            and self._ws_route.match(request.path)
        ):
            return "WS /v1/jobs/{id}/events"
        for method, pattern, template, _handler in self._routes:
            if method == request.method and pattern.match(request.path):
                return f"{method} {template}"
        return "(other)"

    def _observe_request(self, request: HTTPRequest, response: Response, seconds: float) -> None:
        for reg in (self.registry, get_registry()):
            reg.inc("gateway.http_requests")
            reg.inc(f"gateway.http_status.{response.status // 100}xx")
            reg.observe("gateway.request_s", seconds)
        self.windows.observe(
            self._route_template(request), seconds, error=response.status >= 500
        )

    async def _dispatch(
        self,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_host: str,
        ctx: RequestContext,
    ) -> Response | None:
        guarded = request.path.startswith("/v1/")
        if guarded:
            auth_started = time.perf_counter()
            token = self.config.auth.presented_token(request.headers)
            authorized = self.config.auth.authorize(
                request.headers, query_token=request.query.get("token")
            )
            ctx.timings["auth_s"] = time.perf_counter() - auth_started
            if not authorized:
                self.registry.inc("gateway.auth_rejections")
                get_registry().inc("gateway.auth_rejections")
                return _error(
                    401, "missing or invalid token",
                    **{"www-authenticate": 'Bearer realm="artwork-serve"'},
                )
            # /v1/stats is a monitoring read like /healthz: a dashboard
            # polling it must never eat the API clients' token budget.
            if self.config.rate_limit is not None and request.path != "/v1/stats":
                wait = self.config.rate_limit.check(token or peer_host)
                if wait > 0.0:
                    self.registry.inc("gateway.rate_limited")
                    get_registry().inc("gateway.rate_limited")
                    return _error(
                        429, "rate limit exceeded",
                        **{"retry-after": _retry_after(wait)},
                    )
        ws_match = self._ws_route.match(request.path)
        if ws_match and request.method == "GET" and request.wants_websocket:
            with span("gateway.request", method="WS", path=request.path):
                return await self._job_events_ws(
                    request, reader, writer, ws_match.group(1), ctx
                )
        allowed: set[str] = set()
        for method, pattern, _template, handler in self._routes:
            match = pattern.match(request.path)
            if not match:
                continue
            if method != request.method:
                allowed.add(method)
                continue
            with span("gateway.request", method=request.method, path=request.path):
                try:
                    return await handler(request, match, ctx)
                except ProtocolError as exc:  # e.g. a non-JSON body
                    return _error(exc.status, str(exc))
        if allowed:
            return _error(405, "method not allowed", allow=", ".join(sorted(allowed)))
        return _error(404, f"no such endpoint: {request.path}")

    # -- job submission and the pool glue -------------------------------

    def _new_job_id(self) -> str:
        return f"j{next(self._job_counter):06d}"

    def _find_job(self, job_id: str) -> ServedJob | None:
        return self._jobs.get(job_id)

    def _retire_finished(self) -> None:
        excess = len(self._finished_ids) - self.config.max_finished_jobs
        for job_id in self._finished_ids[: max(0, excess)]:
            self._jobs.pop(job_id, None)
        if excess > 0:
            del self._finished_ids[:excess]

    def _inc(self, name: str, n: int = 1) -> None:
        self.registry.inc(name, n)
        get_registry().inc(name, n)

    def _parse_deadline(
        self, request: HTTPRequest, data: dict
    ) -> tuple[float | None, Response | None]:
        """The request's absolute deadline (epoch seconds) from the
        ``X-Deadline-Ms`` header or a top-level ``deadline_ms`` body
        field, anchored at socket arrival time."""
        raw = request.headers.get("x-deadline-ms")
        if raw is None and isinstance(data, dict):
            raw = data.pop("deadline_ms", None)
        if raw is None:
            return None, None
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            return None, _error(400, f"deadline must be a number of ms, got {raw!r}")
        if ms <= 0:
            return None, _error(400, "deadline must be positive milliseconds")
        return request.received_at + ms / 1000.0, None

    async def _post_job(self, request: HTTPRequest, _match, ctx: RequestContext) -> Response:
        if self._draining:
            return _error(503, "gateway is draining", **{"retry-after": _retry_after(5)})
        parse_started = time.perf_counter()
        data = request.json()  # ProtocolError -> 400 upstream
        deadline, bad_deadline = self._parse_deadline(request, data)
        if bad_deadline is not None:
            return bad_deadline
        try:
            spec = JobSpec.from_dict(data)
        except (JobError, NetlistError, ValueError, KeyError, TypeError) as exc:
            return _error(400, f"bad job spec: {exc}")
        finally:
            ctx.timings["parse_s"] = time.perf_counter() - parse_started
        digest = spec.digest

        # Dedup 1: the content-addressed result cache (completed earlier).
        if self.config.cache is not None:
            payload = self._cache_get(spec)
            if payload is not None:
                job = ServedJob(
                    self._new_job_id(), spec, digest,
                    trace=ctx.trace, received_at=request.received_at,
                    gw_timings=ctx.timings, deadline=deadline,
                )
                job.from_cache = True
                self._install_job(job)
                job.add_event("queued", cached=True)
                self._finish_job(job, payload, attempts=0)
                body = {**job.summary(), "deduped": False}
                return _json_response(200, body)

        # Dedup 2: an identical spec already queued or running.
        existing_id = self._by_digest.get(digest)
        if existing_id is not None:
            existing = self._jobs.get(existing_id)
            if existing is not None and not existing.finished:
                self._inc("gateway.jobs_deduped")
                return _json_response(202, {**existing.summary(), "deduped": True})

        # A deadline that lapsed during parsing is not worth queueing.
        if deadline is not None and time.time() >= deadline:
            self._inc("gateway.deadline_rejections")
            return _error(504, "deadline already expired")

        # Degraded (cache-only) mode: the worker fleet is in a crash
        # loop and the breaker is open — misses are refused outright so
        # the backlog can't grow against a dead pool.
        if self.pool.degraded:
            self._inc("gateway.degraded_rejections")
            return _error(
                503,
                "workers unavailable (circuit breaker open); serving cache only",
                **{"retry-after": _retry_after(self.pool.breaker.cooldown)},
            )

        # Backpressure: bounded pool backlog.
        depth = self.pool.queue_depth
        if depth >= self.config.max_queue:
            self._inc("gateway.queue_rejections")
            return _error(
                503,
                f"job queue is full ({depth} waiting)",
                **{"retry-after": _retry_after(max(1.0, depth * 0.1))},
            )

        job = ServedJob(
            self._new_job_id(), spec, digest,
            trace=ctx.trace, received_at=request.received_at,
            gw_timings=ctx.timings, deadline=deadline,
        )
        self._install_job(job)
        self._by_digest[digest] = job.id
        # Durability point: once journaled (fsync policy permitting), the
        # job survives any crash between here and its terminal state.
        if self.config.journal is not None:
            self._journal_op(
                self.config.journal.accepted,
                job.id, digest, spec.to_dict(),
                name=spec.name, trace_id=ctx.trace.trace_id, deadline=deadline,
            )
        try:
            self._submit_to_pool(job)
        except PoolClosedError:
            self._forget_job(job)
            if self.config.journal is not None:
                self._journal_op(self.config.journal.done, job.id, "cancelled")
            return _error(503, "gateway is draining", **{"retry-after": _retry_after(5)})
        job.add_event("queued", digest=digest)
        self._inc("gateway.jobs_submitted")
        return _json_response(202, {**job.summary(), "deduped": False})

    def _submit_to_pool(self, job: ServedJob) -> None:
        """Hand one installed job to the worker pool (completion and
        progress callbacks hop back onto the event loop)."""
        loop = self._loop
        assert loop is not None
        job_id = job.id

        def on_done(result: dict, attempts: int) -> None:
            loop.call_soon_threadsafe(self._on_pool_done, job_id, result, attempts)

        def on_event(event: dict) -> None:
            loop.call_soon_threadsafe(self._on_pool_event, job_id, event)

        self.pool.submit(
            job.spec.to_dict(),
            callback=on_done,
            events=on_event,
            trace=job.trace.to_dict() if job.trace is not None else None,
            deadline=job.deadline,
        )

    def _cache_get(self, spec: JobSpec):
        """Cache lookup that treats cache IO failure as a miss — a bad
        disk must degrade the hit rate, not availability."""
        try:
            return self.config.cache.get(spec)
        except OSError as exc:
            self._inc("gateway.cache_errors")
            self.log.warning(
                "cache read failed", extra={"fields": {"error": str(exc)}}
            )
            return None

    def _install_job(self, job: ServedJob) -> None:
        self._jobs[job.id] = job

    def _forget_job(self, job: ServedJob) -> None:
        self._jobs.pop(job.id, None)
        if self._by_digest.get(job.digest) == job.id:
            del self._by_digest[job.digest]

    def _on_pool_event(self, job_id: str, event: dict) -> None:
        job = self._jobs.get(job_id)
        if job is None or job.finished:
            return
        if event.get("type") == "dispatched":
            job.status = "running"
            job.started_at = time.time()
            if event.get("attempt", 1) == 1 and self.config.journal is not None:
                self._journal_op(self.config.journal.dispatched, job.id)
            job.add_event("running", attempt=event.get("attempt", 1))
        elif event.get("type") == "stage":
            job.add_event("stage", stage=event.get("stage", "?"))

    def _on_pool_done(self, job_id: str, result: dict, attempts: int) -> None:
        job = self._jobs.get(job_id)
        if job is None:
            return
        self._finish_job(job, result, attempts=attempts)

    def _finish_job(self, job: ServedJob, payload: dict, *, attempts: int) -> None:
        job.payload = payload
        job.status = payload.get("status", "error")
        job.attempts = attempts
        job.finished_at = time.time()
        if self._by_digest.get(job.digest) == job.id:
            del self._by_digest[job.digest]
        self._record_job(job)  # cache first: the terminal journal record
        # must only land after the result is durably cached, or a crash
        # in between would lose a finished job.
        if self.config.journal is not None:
            self._journal_op(self.config.journal.done, job.id, job.status)
        self._finished_ids.append(job.id)
        self._observe_stages(job)
        total = max(0.0, job.finished_at - job.received_at)
        self._maybe_record_slow(job, total)
        for key in RECORDED_KEYS:
            payload.pop(key, None)
        self.log.info(
            "served job",
            extra={"fields": {"job": job.spec.name, "id": job.id,
                              "trace": job.trace_id or "",
                              "status": job.status, "cached": job.from_cache,
                              "seconds": round(total, 4)}},
        )
        job.add_event(
            "done",
            status=job.status,
            seconds=payload.get("seconds", 0.0),
            cached=job.from_cache,
            attempts=attempts,
        )
        job.done.set()
        self._retire_finished()

    def _observe_stages(self, job: ServedJob) -> None:
        """Feed one finished job into the per-stage rolling windows."""
        if job.from_cache or job.finished_at is None:
            return
        exec_start = job.started_at if job.started_at is not None else job.finished_at
        self.stage_windows.observe(
            "queue.wait", max(0.0, exec_start - job.submitted_at)
        )
        self.stage_windows.observe(
            "worker.exec",
            max(0.0, job.finished_at - exec_start),
            error=job.status != "ok",
        )
        for node in _walk_span_dicts((job.payload or {}).get("trace") or []):
            name = node.get("name", "")
            if name in STAGE_WINDOW_SPANS:
                self.stage_windows.observe(name, float(node.get("duration", 0.0)))

    def _maybe_record_slow(self, job: ServedJob, total: float) -> None:
        """Persist a ``kind="slow"`` exemplar when the job's end-to-end
        latency reached the configured threshold: the full span tree plus
        the queue/worker breakdown, browsable via ``artwork-inspect``."""
        threshold = self.config.slow_threshold
        if threshold is None or total < threshold:
            return
        self.registry.inc("gateway.slow_requests")
        get_registry().inc("gateway.slow_requests")
        if self.config.runlog is None:
            return
        payload = job.payload or {}
        exec_start = job.started_at if job.started_at is not None else job.finished_at
        breakdown = {
            "auth_s": round(float(job.gw_timings.get("auth_s", 0.0) or 0.0), 6),
            "parse_s": round(float(job.gw_timings.get("parse_s", 0.0) or 0.0), 6),
            "queue_wait_s": round(max(0.0, (exec_start or 0.0) - job.submitted_at), 6),
            "worker_exec_s": round(
                max(0.0, (job.finished_at or 0.0) - (exec_start or 0.0)), 6
            ),
            "total_s": round(total, 6),
        }
        root = job.trace_tree()
        # The profile windows that overlapped the slow request: the
        # gateway's own, plus any the worker shipped with the result.
        windows: list[dict] = []
        sampler = get_sampler()
        if sampler is not None and job.finished_at is not None:
            windows.extend(
                w.to_dict()
                for w in sampler.windows_overlapping(job.received_at, job.finished_at)
            )
        for w in payload.get("profile") or []:
            if (
                isinstance(w, dict)
                and job.finished_at is not None
                and w.get("started_at", 0.0) <= job.finished_at
                and w.get("ended_at", 0.0) >= job.received_at
            ):
                windows.append(w)
        self.config.runlog.record(
            kind="slow",
            name=job.spec.name,
            wall_seconds=round(total, 4),
            spec_digest=job.digest,
            stages=stages_from_spans(payload.get("trace") or []),
            # An explicit empty snapshot: the default would capture the
            # whole process-global registry per exemplar.
            counters={"counters": {}, "histograms": {}},
            profile="",
            profile_windows=windows,
            extra={
                "trace_id": job.trace_id,
                "job_id": job.id,
                "status": job.status,
                "from_cache": job.from_cache,
                "threshold": threshold,
                "breakdown": breakdown,
                "spans": [root.to_dict()] if root is not None else [],
            },
        )

    def _record_job(self, job: ServedJob) -> None:
        """Fold one finished job into obs state and the run registry (via
        :func:`~repro.service.scheduler.record_outcome`, which batch runs
        share) and into the result cache."""
        payload = job.payload or {}
        record_outcome(
            JobOutcome(job.spec, job.status, payload,
                       from_cache=job.from_cache, attempts=job.attempts),
            kind="serve",
            registry=self.registry,
            runlog=self.config.runlog,
            extra={"job_id": job.id, "trace_id": job.trace_id},
        )
        if (
            self.config.cache is not None
            and job.status == "ok"
            and not job.from_cache
        ):
            try:
                self.config.cache.put(job.spec, payload)
            except OSError as exc:
                # A full/broken disk costs the cache entry, not the job.
                self._inc("gateway.cache_errors")
                self.log.warning(
                    "cache write failed",
                    extra={"fields": {"job": job.id, "error": str(exc)}},
                )
        if job.status != "ok":
            self.log.warning(
                "served job did not finish ok",
                extra={"fields": {"job": job.spec.name, "id": job.id,
                                  "status": job.status,
                                  "error": payload.get("error", "")}},
            )

    # -- job queries -----------------------------------------------------

    async def _job_status(self, request: HTTPRequest, match, _ctx) -> Response:
        job = self._find_job(match.group(1))
        if job is None:
            return _error(404, f"no such job: {match.group(1)}")
        if "wait" in request.query and not job.finished:
            try:
                wait_s = min(float(request.query["wait"]), MAX_WAIT_S)
            except ValueError:
                return _error(400, "wait must be a number of seconds")
            try:
                await asyncio.wait_for(job.done.wait(), timeout=max(0.0, wait_s))
            except asyncio.TimeoutError:
                pass
        return _json_response(200, job.summary())

    async def _list_jobs(self, _request: HTTPRequest, _match, _ctx) -> Response:
        jobs = sorted(self._jobs.values(), key=lambda j: j.submitted_at, reverse=True)
        return _json_response(
            200, {"jobs": [j.summary() for j in jobs[:100]], "total": len(self._jobs)}
        )

    async def _job_result(self, _request: HTTPRequest, match, _ctx) -> Response:
        job = self._find_job(match.group(1))
        if job is None:
            return _error(404, f"no such job: {match.group(1)}")
        if not job.finished:
            return _error(409, f"job {job.id} is {job.status}; result not ready")
        return _json_response(200, {**job.summary(), "payload": job.payload})

    async def _job_svg(self, _request: HTTPRequest, match, _ctx) -> Response:
        job = self._find_job(match.group(1))
        if job is None:
            return _error(404, f"no such job: {match.group(1)}")
        if not job.finished:
            return _error(409, f"job {job.id} is {job.status}; artwork not ready")
        payload = job.payload or {}
        if job.status != "ok" or "escher" not in payload:
            return _error(409, f"job {job.id} finished {job.status}; no artwork")
        diagram = read_escher(payload["escher"], job.spec.build_network())
        return Response(200, render_svg(diagram), content_type="image/svg+xml")

    async def _job_trace(self, _request: HTTPRequest, match, _ctx) -> Response:
        """The job's connected span tree as a Chrome trace-event document
        (opens directly in ``chrome://tracing`` / Perfetto)."""
        job = self._find_job(match.group(1))
        if job is None:
            return _error(404, f"no such job: {match.group(1)}")
        if not job.finished:
            return _error(409, f"job {job.id} is {job.status}; trace not ready")
        root = job.trace_tree()
        if root is None:
            return _error(409, f"job {job.id} has no trace")
        return _json_response(200, chrome_trace_document([root]))

    # -- progress streaming ----------------------------------------------

    async def _job_events_poll(self, _request: HTTPRequest, match, _ctx) -> Response:
        """Plain-HTTP fallback for the events endpoint (no Upgrade header):
        the full event history so far."""
        job = self._find_job(match.group(1))
        if job is None:
            return _error(404, f"no such job: {match.group(1)}")
        return _json_response(200, {"id": job.id, "events": job.events})

    async def _job_events_ws(
        self,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        job_id: str,
        ctx: RequestContext,
    ) -> Response | None:
        job = self._find_job(job_id)
        if job is None:
            return _error(404, f"no such job: {job_id}")
        try:
            writer.write(
                ws_handshake_response(
                    request,
                    extra_headers={
                        "x-request-id": ctx.trace.trace_id,
                        "traceparent": ctx.trace.traceparent(),
                    },
                )
            )
            await writer.drain()
        except ProtocolError as exc:
            return _error(exc.status, str(exc))
        self.registry.inc("gateway.ws_connections")
        get_registry().inc("gateway.ws_connections")

        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.add(queue)
        closed = asyncio.Event()

        async def watch_client() -> None:
            try:
                while True:
                    opcode, payload = await ws_read_frame(reader)
                    if opcode == OP_CLOSE:
                        break
                    if opcode == OP_PING:
                        writer.write(ws_encode_frame(payload, opcode=OP_PONG))
                        await writer.drain()
            except (ProtocolError, asyncio.IncompleteReadError,
                    ConnectionResetError, OSError):
                pass
            closed.set()

        watcher = asyncio.create_task(watch_client())
        try:
            # History first (subscribe-then-replay, so nothing is missed);
            # the queue filter below drops anything replayed twice.
            history = list(job.events)
            last_seq = history[-1]["seq"] if history else -1
            for event in history:
                writer.write(ws_encode_frame(json_body(event)))
            await writer.drain()
            finished = bool(history) and history[-1]["event"] == "done"
            while not finished and not closed.is_set():
                getter = asyncio.ensure_future(queue.get())
                closer = asyncio.ensure_future(closed.wait())
                done, _pending = await asyncio.wait(
                    {getter, closer}, return_when=asyncio.FIRST_COMPLETED
                )
                closer.cancel()
                if getter not in done:
                    getter.cancel()
                    break
                event = getter.result()
                if event["seq"] <= last_seq:
                    continue
                last_seq = event["seq"]
                writer.write(ws_encode_frame(json_body(event)))
                await writer.drain()
                if event["event"] == "done":
                    finished = True
            writer.write(ws_encode_frame(b"", opcode=OP_CLOSE))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            job.subscribers.discard(queue)
            watcher.cancel()
        return None  # connection consumed

    # -- observability endpoints -----------------------------------------

    async def _healthz(self, _request: HTTPRequest, _match, _ctx) -> Response:
        # Force a liveness pass so a freshly killed worker is visible in
        # this very response, not one poll interval later.
        self.pool.reap()
        health = self.pool.health()
        queued = sum(1 for j in self._jobs.values() if j.status == "queued")
        running = sum(1 for j in self._jobs.values() if j.status == "running")
        breaker_state = health.get("breaker", {}).get("state", "closed")
        degraded = health["alive"] < health["size"] or breaker_state == "open"
        status = "draining" if self._draining else ("degraded" if degraded else "ok")
        body = {
            "status": status,
            "version": __version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "pool": health,
            "jobs": {
                "tracked": len(self._jobs),
                "queued": queued,
                "running": running,
                "finished": len(self._finished_ids),
            },
        }
        if self.config.journal is not None:
            body["journal"] = {"live_jobs": self.config.journal.live_jobs}
        return _json_response(200 if status == "ok" else 503, body)

    def _worker_states(self, health: dict) -> dict[str, int]:
        states = {"idle": 0, "busy": 0, "dead": 0}
        for worker in health["workers"]:
            states[worker.get("state", "dead")] = states.get(worker.get("state", "dead"), 0) + 1
        return states

    def _window_series(self) -> dict[str, list[tuple[dict, float]]]:
        """The rolling windows as labeled Prometheus series (zero-count
        window entries are skipped to bound exposition size)."""
        series: dict[str, list[tuple[dict, float]]] = {}

        def emit(prefix: str, label_key: str, snapshot: dict) -> None:
            for key, per_window in sorted(snapshot.items()):
                for window, stats in per_window.items():
                    if not stats["count"]:
                        continue
                    labels = {label_key: key, "window": window}
                    series.setdefault(f"{prefix}_qps", []).append(
                        (labels, stats["qps"])
                    )
                    series.setdefault(f"{prefix}_error_ratio", []).append(
                        (labels, stats["error_ratio"])
                    )
                    for quantile in ("p50", "p95"):
                        series.setdefault(f"{prefix}_seconds", []).append(
                            ({**labels, "quantile": quantile}, stats[quantile])
                        )

        emit("gateway.request", "endpoint", self.windows.snapshot())
        emit("gateway.stage", "stage", self.stage_windows.snapshot())
        return series

    async def _metrics(self, _request: HTTPRequest, _match, _ctx) -> Response:
        health = self.pool.health()
        states = self._worker_states(health)
        gauges = {
            "gateway.queue_depth": health["queued"],
            "gateway.jobs_in_flight": health["in_flight"],
            "gateway.workers_alive": health["alive"],
            "gateway.workers_size": health["size"],
            "gateway.worker_restarts_total": health["worker_restarts"],
            "gateway.uptime_s": round(time.time() - self.started_at, 3),
            "gateway.jobs_tracked": len(self._jobs),
            "gateway.draining": 1 if self._draining else 0,
        }
        breaker = health.get("breaker", {})
        if breaker:
            gauges["gateway.breaker_open"] = 1 if breaker.get("state") == "open" else 0
            gauges["gateway.breaker_trips_total"] = breaker.get("trips", 0)
            gauges["gateway.breaker_heals_total"] = breaker.get("heals", 0)
        gauges["gateway.kill_escalated_total"] = health.get("kill_escalated", 0)
        gauges["gateway.deadline_cancelled_total"] = health.get("deadline_cancelled", 0)
        sampler = get_sampler()
        if sampler is not None:
            snap = sampler.snapshot()
            gauges["gateway.sampler_running"] = 1 if snap["running"] else 0
            gauges["gateway.sampler_hz"] = snap["hz"]
            gauges["gateway.sampler_ticks_total"] = snap["ticks"]
            gauges["gateway.sampler_errors_total"] = snap["errors"]
            gauges["gateway.sampler_overhead_ratio"] = snap["overhead_ratio"]
            gauges["gateway.sampler_attributed_ratio"] = snap["attributed_ratio"]
        if self.config.journal is not None:
            snap = self.config.journal.snapshot()
            gauges["gateway.journal_live_jobs"] = snap["live_jobs"]
            gauges["gateway.journal_appended_total"] = snap["appended"]
            gauges["gateway.journal_compactions_total"] = snap["compactions"]
        series = self._window_series()
        series["gateway.workers"] = [
            ({"state": state}, count) for state, count in sorted(states.items())
        ]
        if breaker:
            series["gateway.breaker"] = [
                ({"state": state}, 1 if breaker.get("state") == state else 0)
                for state in ("closed", "open", "half_open")
            ]
        if self.config.cache is not None:
            stats = self.config.cache.stats
            gauges["gateway.cache_entries"] = len(self.config.cache)
            gauges["gateway.cache_hit_rate"] = round(stats.hit_rate, 4)
        if self.config.rate_limit is not None:
            limiter = self.config.rate_limit
            levels = limiter.levels(limit=32)
            gauges["gateway.rate_clients"] = len(limiter.levels())
            gauges["gateway.rate_allowed_total"] = limiter.allowed
            gauges["gateway.rate_rejected_total"] = limiter.rejected
            if levels:
                series["gateway.rate_tokens"] = [
                    ({"client": client}, tokens)
                    for client, tokens in sorted(levels.items())
                ]
        text = render_prometheus(
            self.registry.snapshot(), gauges=gauges, series=series
        )
        return Response(200, text, content_type="text/plain; version=0.0.4")

    async def _stats(self, _request: HTTPRequest, _match, _ctx) -> Response:
        """Live telemetry JSON: windowed RED per endpoint and per stage,
        plus instantaneous gauges — what ``artwork-top`` polls."""
        health = self.pool.health()
        states = self._worker_states(health)
        body = {
            "version": __version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "windows": dict(WINDOWS),
            "endpoints": self.windows.snapshot(),
            "stages": self.stage_windows.snapshot(),
            "gauges": {
                "queue_depth": health["queued"],
                "in_flight": health["in_flight"],
                "jobs_tracked": len(self._jobs),
                "workers": {
                    "size": health["size"],
                    "alive": health["alive"],
                    **states,
                },
            },
            "breaker": health.get("breaker", {}),
            "totals": {
                name: self.registry.get(name)
                for name in (
                    "gateway.http_requests",
                    "gateway.jobs_submitted",
                    "gateway.jobs_deduped",
                    "gateway.slow_requests",
                    "gateway.rate_limited",
                    "gateway.auth_rejections",
                    "gateway.queue_rejections",
                    "gateway.degraded_rejections",
                    "gateway.deadline_rejections",
                    "gateway.journal_errors",
                    "gateway.journal_replayed",
                    "gateway.cache_errors",
                    "gateway.ws_connections",
                    "service.jobs",
                    "service.cache_hits",
                    "service.cache_misses",
                    "route.heur_escalations",
                )
            },
        }
        sampler = get_sampler()
        body["profile"] = (
            sampler.snapshot() if sampler is not None else {"running": False}
        )
        if self.config.journal is not None:
            body["journal"] = self.config.journal.snapshot()
        faults = get_faults()
        if faults.active:
            body["faults"] = {
                "spec": faults.spec,
                "seed": faults.seed,
                "points": faults.points(),
                "fired": faults.fired(),
            }
        if self.config.cache is not None:
            body["gauges"]["cache"] = {
                "entries": len(self.config.cache),
                "hit_rate": round(self.config.cache.stats.hit_rate, 4),
            }
        if self.config.rate_limit is not None:
            limiter = self.config.rate_limit
            body["gauges"]["rate_limiter"] = {
                "clients": len(limiter.levels()),
                "allowed": limiter.allowed,
                "rejected": limiter.rejected,
            }
        return _json_response(200, body)

    async def _profile(self, request: HTTPRequest, _match, _ctx) -> Response:
        """On-demand high-hz capture of the gateway process: sample for
        ``?seconds=N`` (clamped to :data:`MAX_PROFILE_S`) off the event
        loop and return a self-contained flamegraph HTML page.  The
        always-on windows collected so far ride along in the page too,
        so a single POST shows both the burst and the trailing minute."""
        try:
            seconds = float(request.query.get("seconds", "1"))
        except ValueError:
            return _error(400, "seconds must be a number")
        seconds = min(max(seconds, 0.05), MAX_PROFILE_S)
        try:
            hz = float(request.query.get("hz", str(CAPTURE_HZ)))
        except ValueError:
            return _error(400, "hz must be a number")
        hz = min(max(hz, 1.0), 997.0)
        self._inc("gateway.profile_captures")
        window = await asyncio.to_thread(capture, seconds, hz=hz)
        html = render_flamegraph_html(
            [window],
            title=f"artwork-serve profile — {seconds:g}s at {hz:g} hz",
        )
        return Response(
            200,
            html,
            content_type="text/html; charset=utf-8",
            headers={"x-profile-samples": str(window.samples)},
        )


# -- embedding helpers (tests, benchmarks, notebooks) -----------------------


class GatewayHandle:
    """A gateway running on a daemon thread, controlled from the caller."""

    def __init__(self) -> None:
        self.gateway: ArtworkGateway | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.thread: threading.Thread | None = None
        self.error: BaseException | None = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        assert self.gateway is not None and self.gateway.port is not None
        return self.gateway.port

    @property
    def base_url(self) -> str:
        assert self.gateway is not None
        return f"http://{self.gateway.config.host}:{self.port}"

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        if self.loop is None or self.gateway is None or self.loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.gateway.stop(drain=drain), self.loop
        )
        future.result(timeout=timeout)
        if self.thread is not None:
            self.thread.join(timeout=timeout)

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def start_gateway(
    config: GatewayConfig | None = None, *, pool: WorkerPool | None = None
) -> GatewayHandle:
    """Run an :class:`ArtworkGateway` on a background thread; returns once
    it is accepting connections.  The caller owns ``handle.stop()``."""
    handle = GatewayHandle()

    async def main() -> None:
        gateway = ArtworkGateway(config, pool=pool)
        try:
            await gateway.start()
        except BaseException as exc:  # bind errors land on the caller
            handle.error = exc
            handle._ready.set()
            raise
        handle.gateway = gateway
        handle.loop = asyncio.get_running_loop()
        handle._ready.set()
        await gateway.wait_stopped()

    def runner() -> None:
        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via handle.error
            if handle.error is None:
                handle.error = exc
            handle._ready.set()

    handle.thread = threading.Thread(target=runner, name="artwork-serve", daemon=True)
    handle.thread.start()
    handle._ready.wait(timeout=30.0)
    if handle.error is not None:
        raise RuntimeError(f"gateway failed to start: {handle.error}") from handle.error
    if handle.gateway is None:
        raise RuntimeError("gateway failed to start within 30s")
    return handle
