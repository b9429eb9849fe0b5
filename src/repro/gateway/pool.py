"""Persistent worker pool: fork once, keep imports and caches warm.

Worker processes are forked **once** (so the ``repro`` imports, module
library and interned geometry all arrive warm via copy-on-write), live
for the pool's lifetime, and take jobs one at a time from per-worker
inboxes under parent-side dispatch.

Parent-side, one-at-a-time dispatch buys exact failure attribution: the
parent always knows which job a dead worker was holding, so a crashed
worker (segfault, ``os._exit``, OOM kill) is replaced with a fresh fork
and its job is retried once — a sibling's death never takes a healthy
job down with it.  Per-job timeouts are enforced inside the worker
via ``SIGALRM`` (:func:`repro.service.scheduler.run_with_timeout`) with
a parent-side hard kill as the backstop for workers stuck outside the
interpreter.  Results travel over **per-worker pipes** — one writer per
stream — so a SIGKILL/OOM kill can tear only the dead worker's own
channel (a clean EOF to the parent), never a shared lock or the framing
of a queue other workers still depend on.

The pool is *supervised*, not merely self-healing.  Worker deaths feed
a :class:`CircuitBreaker`: repeated unexpected deaths are respawned
under exponential backoff, and a crash loop (``breaker_threshold``
deaths inside ``breaker_window`` seconds) trips the breaker **open** —
respawning stops, and consumers (the gateway) flip into cache-only
degraded mode.  After ``breaker_cooldown`` seconds the breaker goes
**half-open**: one probe worker is forked and the next job's survival
decides — a delivered result closes the breaker and restores the fleet,
another death re-opens it.  Deliberate parent kills (the timeout
backstop, ``close()``) never count against the breaker.

Jobs may carry an absolute **deadline** (epoch seconds): still-queued
jobs whose deadline passed are cancelled before dispatch, and the
worker clamps its ``SIGALRM`` budget to the remaining time, so a
client's patience bounds the compute spent on its behalf end to end.

The pool is consumer-agnostic: :class:`~repro.service.scheduler.
BatchScheduler` runs every fanned-out batch on one (its own for the
run, or a borrowed one under ``artwork-batch --keep-warm``), and the
``artwork-serve`` gateway (:mod:`repro.gateway.server`) drives it from
an asyncio loop via the completion callbacks (which fire on the pool's
collector thread — hop loops before touching loop state).
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, field
from typing import Any, Callable

from ..faults import CRASH_EXIT_CODE, get_faults
from ..obs.counters import get_registry
from ..obs.sampler import ensure_sampler, get_sampler, label_thread, set_sampler
from ..obs.trace import TraceContext, set_trace_context
from ..service.scheduler import error_payload, execute_job, run_with_timeout

#: Sentinel for "use the pool's default timeout" in :meth:`WorkerPool.submit`.
_DEFAULT = object()

#: Message tags on a worker's result pipe (worker -> parent).
_MSG_DONE = "done"
_MSG_EVENT = "event"

#: A job is retried after a worker crash at most this many attempts total.
MAX_ATTEMPTS = 2

ResultCallback = Callable[[dict, int], None]
EventCallback = Callable[[dict], None]


class PoolClosedError(RuntimeError):
    """Submit was called on a closed (or draining) pool."""


class CircuitBreaker:
    """Crash-loop detector with the classic three-state machine.

    * **closed** — healthy; unexpected worker deaths are tolerated (and
      respawned under backoff) until ``threshold`` of them land inside
      ``window`` seconds.
    * **open** — crash loop declared: no respawns, consumers degrade to
      cache-only.  After ``cooldown`` seconds :meth:`poll` moves on.
    * **half_open** — one probe worker is allowed; the next delivered
      result closes the breaker, another death re-opens it.

    The clock is injectable so tests drive transitions deterministically.
    Not thread-safe by itself — the pool calls it under its own lock.
    """

    def __init__(
        self,
        threshold: int = 5,
        window: float = 30.0,
        cooldown: float = 5.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.trips = 0
        self.heals = 0
        self.opened_at: float | None = None
        self._failures: deque[float] = deque()

    def _prune(self, now: float) -> None:
        while self._failures and now - self._failures[0] > self.window:
            self._failures.popleft()

    def record_failure(self) -> bool:
        """Count one unexpected worker death; True when this trips open."""
        now = self.clock()
        self._prune(now)
        self._failures.append(now)
        if self.state == "half_open" or (
            self.state == "closed" and len(self._failures) >= self.threshold
        ):
            self.state = "open"
            self.opened_at = now
            self.trips += 1
            return True
        return False

    def record_success(self) -> bool:
        """A worker delivered a result; True when this *healed* the breaker."""
        healed = self.state != "closed"
        if healed:
            self.heals += 1
        self.state = "closed"
        self.opened_at = None
        self._failures.clear()
        return healed

    def poll(self) -> str:
        """Advance time-driven transitions (open → half_open); returns state."""
        if (
            self.state == "open"
            and self.opened_at is not None
            and self.clock() - self.opened_at >= self.cooldown
        ):
            self.state = "half_open"
        return self.state

    def allow_respawn(self, alive: int) -> bool:
        """May the pool fork a replacement right now, given ``alive``
        workers already up?  Open: never.  Half-open: one probe only."""
        if self.state == "open":
            return False
        if self.state == "half_open":
            return alive < 1
        return True

    def snapshot(self) -> dict:
        now = self.clock()
        self._prune(now)
        return {
            "state": self.state,
            "failures_in_window": len(self._failures),
            "threshold": self.threshold,
            "window_s": self.window,
            "cooldown_s": self.cooldown,
            "trips": self.trips,
            "heals": self.heals,
            "open_age_s": (
                round(now - self.opened_at, 3) if self.opened_at is not None else None
            ),
        }


#: How often a worker checks that its parent is still alive.
PARENT_POLL_S = 0.5


def _exit_with_parent(parent: int) -> None:
    """End this worker once ``parent`` is gone — idle in ``inbox.get``
    or mid-job alike.  A SIGKILLed parent cannot close its workers, and
    a worker holds both ends of its own pipes, so nothing else would
    ever wake it."""
    sampler = get_sampler()
    if sampler is not None:  # an idle watch, not work worth profiling
        sampler.excluded.add(threading.get_ident())
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(0)


def _worker_main(inbox, results, worker, wants_progress, parent) -> None:
    """Child process body: pull one job at a time until the sentinel.

    ``results`` is this worker's **private** pipe connection to the
    parent.  One writer per stream means a SIGKILL (or OOM kill) can
    tear at most this worker's own channel — it can never wedge a lock
    or corrupt framing that other workers depend on, which a shared
    queue's cross-process write lock cannot guarantee.
    """
    # A forked worker inherits its parent's signal setup.  Under
    # artwork-serve that is asyncio's SIGTERM/SIGINT handlers, which
    # write to the parent loop's wakeup fd, so a signal sent to one
    # worker would drain and stop the whole daemon.  A worker dies on
    # SIGTERM, leaves a terminal's Ctrl-C to its parent's drain, and
    # exits with its parent.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def post(msg) -> bool:
        try:
            results.send(msg)
            return True
        except (BrokenPipeError, OSError):  # parent is gone — stop working
            return False

    # Fresh always-on sampler for this child: the forked-in parent
    # sampler is a dead thread holding the *parent's* windows, which
    # must not leak into this worker's job payloads.
    set_sampler(None)
    ensure_sampler()
    label_thread("worker.main")
    threading.Thread(
        target=_exit_with_parent, args=(parent,), name="parent-watch", daemon=True
    ).start()
    while True:
        item = inbox.get()
        if item is None:
            break
        ticket, timeout, payload, trace, deadline = item
        pid = os.getpid()
        if deadline is not None:
            # Clamp the SIGALRM budget to the client's remaining patience;
            # a job whose deadline already passed is not worth starting.
            remaining = deadline - time.time()
            if remaining <= 0.0:
                if not post((
                    _MSG_DONE, ticket, pid,
                    error_payload(payload, "cancelled", "deadline expired before execution"),
                )):
                    break
                continue
            timeout = min(timeout, remaining) if timeout else remaining
        if wants_progress:
            def emit(stage: str) -> None:
                post((_MSG_EVENT, ticket, pid, {"type": "stage", "stage": str(stage)}))

            fn = lambda p: worker(p, progress=emit)  # noqa: E731 - tiny shim
        else:
            fn = worker
        # Install the request's trace context for the duration of the job
        # so worker-side spans carry the gateway's trace id.
        previous = set_trace_context(
            TraceContext.from_dict(trace) if trace else None
        )
        try:
            # "worker.exec" failpoint: crash kills this process (the
            # supervisor must recover), io surfaces as an error payload,
            # sleep stalls outside the SIGALRM window (the parent-side
            # kill backstop must fire).
            get_faults().fire("worker.exec")
            result = run_with_timeout(fn, timeout, payload)
        except Exception as exc:  # noqa: BLE001 - the loop must survive bad workers
            result = error_payload(payload, "error", f"{type(exc).__name__}: {exc}")
        finally:
            set_trace_context(previous)
        # "pool.ipc" failpoint: crash = die after doing the work (the
        # parent's retry must dedup), io = the result message is lost
        # (the parent's timeout backstop must reclaim the worker).
        ipc_fault = get_faults().check("pool.ipc")
        if ipc_fault is not None and ipc_fault.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if ipc_fault is not None and ipc_fault.kind == "io":
            continue
        if not post((_MSG_DONE, ticket, pid, result)):
            break


@dataclass
class _Ticket:
    """Parent-side bookkeeping for one submitted job."""

    ticket: int
    payload: dict
    timeout: float | None
    callback: ResultCallback | None
    events: EventCallback | None
    trace: dict | None = None
    #: Absolute epoch deadline (``time.time()`` scale, shared with workers).
    deadline: float | None = None
    attempts: int = 0
    dispatched_at: float | None = None


@dataclass
class _Worker:
    """One live child process plus its private inbox and result pipe."""

    proc: multiprocessing.process.BaseProcess
    inbox: Any
    #: Parent-side read end of this worker's result pipe; ``None`` once
    #: the stream hit EOF (worker dead) and was discarded.
    conn: Any = None
    busy: _Ticket | None = None
    spawned_at: float = field(default_factory=time.monotonic)
    #: Set when the parent killed this worker on purpose (timeout
    #: backstop) — deliberate kills never count against the breaker.
    deliberate_kill: bool = False
    #: The death has been accounted (restart tally, breaker, job rescue).
    buried: bool = False
    #: Earliest monotonic time a replacement may be forked (backoff).
    respawn_at: float = 0.0

    @property
    def pid(self) -> int | None:
        return self.proc.pid


class WorkerPool:
    """A long-lived fleet of warm worker processes.

    ``worker`` is a picklable module-level callable taking the job
    payload dict (plus an optional ``progress`` keyword — detected by
    signature — for streaming per-stage events back to the parent).
    Completion/event callbacks run on the pool's collector thread.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        worker: Callable[..., dict] = execute_job,
        timeout: float | None = None,
        poll_interval: float = 0.1,
        kill_grace: float = 2.0,
        start_method: str | None = None,
        restart_backoff: float = 0.5,
        backoff_max: float = 30.0,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.size = workers
        self.worker_fn = worker
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.kill_grace = kill_grace
        self.restart_backoff = restart_backoff
        self.backoff_max = backoff_max
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        try:
            params = inspect.signature(worker).parameters
            self._wants_progress = "progress" in params
        except (TypeError, ValueError):  # builtins / C callables
            self._wants_progress = False

        self._lock = threading.RLock()
        self._idle_changed = threading.Condition(self._lock)
        self._workers: list[_Worker] = []
        self._backlog: deque[_Ticket] = deque()
        self._inflight: dict[int, _Ticket] = {}
        self._collector: threading.Thread | None = None
        self._next_ticket = 0
        self._started = False
        self._closing = False
        self._stopped = threading.Event()
        self.started_at = 0.0
        # Lifetime tallies surfaced by health()/healthz.
        self.dispatched = 0
        self.completed = 0
        self.crashed_jobs = 0
        self.worker_restarts = 0
        self.kill_escalated = 0
        self.deadline_cancelled = 0
        #: Unexpected worker deaths since the last delivered result —
        #: drives the exponential respawn backoff.
        self._consecutive_deaths = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self.started_at = time.monotonic()
            for _ in range(self.size):
                self._workers.append(self._spawn())
            self._collector = threading.Thread(
                target=self._collect, name="pool-collector", daemon=True
            )
            self._collector.start()
        return self

    def _spawn(self) -> _Worker:
        inbox = self._ctx.Queue()
        # One private result pipe per worker: results cannot be lost or
        # wedged by *another* worker's death, and this worker's own death
        # turns into a clean EOF on our read end.
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(inbox, send_conn, self.worker_fn, self._wants_progress, os.getpid()),
            daemon=True,
            name="artwork-worker",
        )
        proc.start()
        send_conn.close()  # the child holds the only write end now
        return _Worker(proc=proc, inbox=inbox, conn=recv_conn)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(
        self,
        payload: dict,
        *,
        timeout: Any = _DEFAULT,
        callback: ResultCallback | None = None,
        events: EventCallback | None = None,
        trace: dict | None = None,
        deadline: float | None = None,
    ) -> int:
        """Queue one job payload; returns its ticket number.

        ``callback(result_dict, attempts)`` fires exactly once per job on
        the collector thread; ``events`` receives ``{"type": ...}`` dicts
        (a ``dispatched`` marker from the parent, ``stage`` markers from
        inside the worker) as they happen.  ``trace`` is an optional
        serialized :class:`~repro.obs.trace.TraceContext` installed in
        the worker for the job's duration, so worker-side spans join the
        submitting request's trace.  ``deadline`` is an absolute epoch
        time past which the job is worthless: expired-but-queued jobs are
        cancelled instead of dispatched, and the worker's budget is
        clamped to the remaining time.
        """
        if not self._started:
            self.start()
        with self._lock:
            if self._closing:
                raise PoolClosedError("pool is draining; not accepting jobs")
            self._next_ticket += 1
            ticket = _Ticket(
                ticket=self._next_ticket,
                payload=payload,
                timeout=self.timeout if timeout is _DEFAULT else timeout,
                callback=callback,
                events=events,
                trace=trace,
                deadline=deadline,
            )
            self._inflight[ticket.ticket] = ticket
            self._backlog.append(ticket)
            self._dispatch_locked()
            return ticket.ticket

    def _cancel_expired_locked(self, ticket: _Ticket) -> bool:
        """Cancel ``ticket`` when its deadline already passed (lock held)."""
        if ticket.deadline is None or time.time() <= ticket.deadline:
            return False
        self.deadline_cancelled += 1
        get_registry().inc("pool.deadline_cancelled")
        self._deliver_locked(
            ticket,
            error_payload(ticket.payload, "cancelled", "deadline expired before dispatch"),
        )
        return True

    def _dispatch_locked(self) -> None:
        """Hand backlog jobs to idle live workers (call with the lock held)."""
        if not self._backlog:
            return
        for worker in self._workers:
            if not self._backlog:
                break
            if worker.busy is not None or not worker.proc.is_alive():
                continue
            while self._backlog:
                ticket = self._backlog.popleft()
                if self._cancel_expired_locked(ticket):
                    continue  # this worker is still free for the next job
                ticket.attempts += 1
                ticket.dispatched_at = time.monotonic()
                worker.busy = ticket
                self.dispatched += 1
                worker.inbox.put(
                    (ticket.ticket, ticket.timeout, ticket.payload,
                     ticket.trace, ticket.deadline)
                )
                if ticket.events is not None:
                    self._safe_event(
                        ticket, {"type": "dispatched", "attempt": ticket.attempts}
                    )
                break

    @staticmethod
    def _safe_event(ticket: _Ticket, data: dict) -> None:
        try:
            ticket.events(data)  # type: ignore[misc]
        except Exception:  # noqa: BLE001 - consumer bugs must not kill the pool
            pass

    # -- collection and liveness ---------------------------------------

    def _collect(self) -> None:
        label_thread("pool.collector")
        last_reap = time.monotonic()
        while True:
            with self._lock:
                conns = [w.conn for w in self._workers if w.conn is not None]
            if conns:
                try:
                    ready = mp_connection.wait(conns, timeout=self.poll_interval)
                except OSError:  # a conn was closed mid-wait by a reaper
                    ready = []
            else:
                # close() sets the event: no worker pipe is left to wake us.
                self._stopped.wait(self.poll_interval)
                ready = []
            for conn in ready:
                self._pump(conn)
            if self._stopped.is_set() and not ready:
                break
            if not ready or time.monotonic() - last_reap >= self.poll_interval:
                self.reap()
                last_reap = time.monotonic()

    def _pump(self, conn) -> None:
        """Drain every complete frame currently buffered on one worker's
        result pipe.  A torn stream (the worker died, possibly mid-send)
        surfaces as EOF/garbage on *this* channel only — it is discarded
        and :meth:`reap` buries the corpse; no other worker is affected.
        """
        torn = False
        while True:
            try:
                if not conn.poll():
                    break
                msg = conn.recv()
            except (EOFError, OSError):
                torn = True
                break
            except Exception:  # noqa: BLE001 - unpicklable / torn frame
                torn = True
                break
            self._handle_msg(msg)
        if not torn:
            return
        with self._lock:
            for worker in self._workers:
                if worker.conn is conn:
                    worker.conn = None
        try:
            conn.close()
        except OSError:
            pass

    def _handle_msg(self, msg) -> None:
        try:
            tag, ticket_id, pid, data = msg
        except (TypeError, ValueError):  # malformed frame — drop it
            return
        if tag == _MSG_EVENT:
            with self._lock:
                ticket = self._inflight.get(ticket_id)
            if ticket is not None and ticket.events is not None:
                self._safe_event(ticket, data)
        elif tag == _MSG_DONE:
            self._finish(ticket_id, pid, data)

    def _finish(self, ticket_id: int, pid: int | None, result: dict) -> None:
        with self._lock:
            ticket = self._inflight.pop(ticket_id, None)
            if ticket is None:  # duplicate delivery after a crash-retry race
                return
            for worker in self._workers:
                if worker.busy is ticket:
                    worker.busy = None
            self.completed += 1
            if result.get("status") == "crashed":
                self.crashed_jobs += 1
            # A delivered result is proof of a live, working fleet: reset
            # the respawn backoff and heal the breaker if it was tripped.
            self._consecutive_deaths = 0
            if self.breaker.record_success():
                get_registry().inc("pool.breaker_healed")
                for worker in self._workers:
                    worker.respawn_at = 0.0  # restore the fleet now
            self._dispatch_locked()
            self._idle_changed.notify_all()
        if ticket.callback is not None:
            try:
                ticket.callback(result, ticket.attempts)
            except Exception:  # noqa: BLE001 - consumer bugs must not kill the pool
                pass

    def _backoff_delay(self) -> float:
        """Respawn delay after ``_consecutive_deaths`` unexplained deaths:
        the first two are forgiven (instant respawn — transient crashes
        should not add latency), then exponential from ``restart_backoff``."""
        deaths = self._consecutive_deaths
        if deaths <= 2:
            return 0.0
        return min(self.backoff_max, self.restart_backoff * (2.0 ** (deaths - 3)))

    def reap(self) -> None:
        """One supervision pass: hard-kill workers stuck past their
        budget, bury dead workers (feeding the breaker), respawn
        replacements under backoff where the breaker allows, cancel
        expired-deadline backlog jobs, and retry (once) or fail the jobs
        the dead were holding.  Cheap; ``/healthz`` calls it
        synchronously so a killed worker is visible within one interval.
        """
        lost: list[tuple[_Ticket, bool]] = []
        with self._lock:
            if not self._started or self._stopped.is_set():
                return
            now = time.monotonic()
            for worker in self._workers:
                ticket = worker.busy
                if (
                    worker.proc.is_alive()
                    and ticket is not None
                    and ticket.timeout
                    and ticket.dispatched_at is not None
                    and now - ticket.dispatched_at > ticket.timeout + self.kill_grace
                ):
                    # SIGALRM failed to fire (blocked outside the
                    # interpreter) — the parent-side backstop.  Never
                    # block the reaping thread on the corpse: if the
                    # kernel is slow to reap, count the escalation and
                    # collect the body on a later pass.
                    worker.deliberate_kill = True
                    worker.proc.kill()
                    worker.proc.join(timeout=0.5)
                    if worker.proc.is_alive():
                        self.kill_escalated += 1
                        get_registry().inc("pool.kill_escalated")
            for worker in self._workers:
                if worker.proc.is_alive() or worker.buried:
                    continue
                if worker.conn is not None:
                    # The collector has not yet drained this corpse's
                    # result pipe to EOF.  A result sent in the worker's
                    # last instant may still be in flight — burying now
                    # would retry a job that actually finished.  The EOF
                    # makes the pipe readable, so the drain is at most
                    # one poll interval away.
                    continue
                worker.proc.join(timeout=0)
                worker.buried = True
                self.worker_restarts += 1
                if worker.busy is not None:
                    lost.append((worker.busy, worker.deliberate_kill))
                    worker.busy = None
                if not worker.deliberate_kill:
                    self._consecutive_deaths += 1
                    if self.breaker.record_failure():
                        get_registry().inc("pool.breaker_tripped")
                    worker.respawn_at = now + self._backoff_delay()
            self.breaker.poll()
            alive = sum(1 for w in self._workers if w.proc.is_alive())
            for i, worker in enumerate(self._workers):
                if worker.proc.is_alive() or self._closing:
                    continue
                if not worker.buried:
                    # Still waiting on the result-pipe drain; replacing
                    # the corpse now would drop its in-flight ticket.
                    continue
                if now < worker.respawn_at or not self.breaker.allow_respawn(alive):
                    continue
                self._workers[i] = self._spawn()
                alive += 1
            # Queued jobs whose deadline already lapsed will never be
            # worth dispatching — cancel them while they still have a
            # caller to notice.
            if self._backlog:
                still_live = [
                    t for t in self._backlog if not self._cancel_expired_locked(t)
                ]
                if len(still_live) != len(self._backlog):
                    self._backlog = deque(still_live)
            for ticket, deliberate in lost:
                budget = ticket.timeout
                timed_out = deliberate or (
                    budget is not None
                    and ticket.dispatched_at is not None
                    and now - ticket.dispatched_at > budget
                )
                if timed_out:
                    ticket.attempts = MAX_ATTEMPTS  # a kill is not retried
                elif ticket.attempts < MAX_ATTEMPTS:
                    self._backlog.append(ticket)
                    continue
                status = "timeout" if timed_out else "crashed"
                error = (
                    f"exceeded {budget:g}s budget (worker killed)"
                    if timed_out and budget is not None
                    else "worker process died"
                )
                self._deliver_locked(ticket, error_payload(ticket.payload, status, error))
            self._dispatch_locked()
            self._idle_changed.notify_all()

    def _deliver_locked(self, ticket: _Ticket, result: dict) -> None:
        self._inflight.pop(ticket.ticket, None)
        self.completed += 1
        if result.get("status") in ("crashed", "cancelled"):
            self.crashed_jobs += 1
        if ticket.callback is not None:
            try:
                ticket.callback(result, ticket.attempts)
            except Exception:  # noqa: BLE001
                pass

    # -- introspection --------------------------------------------------

    def health(self) -> dict:
        """Liveness and load snapshot (the ``/healthz`` body)."""
        with self._lock:
            workers = [
                {
                    "pid": w.pid,
                    "alive": w.proc.is_alive(),
                    "busy": w.busy.ticket if w.busy is not None else None,
                    "state": (
                        "dead"
                        if not w.proc.is_alive()
                        else "busy" if w.busy is not None else "idle"
                    ),
                    "age_s": round(time.monotonic() - w.spawned_at, 3),
                }
                for w in self._workers
            ]
            running = sum(1 for w in self._workers if w.busy is not None)
            return {
                "size": self.size,
                "alive": sum(1 for w in workers if w["alive"]),
                "workers": workers,
                "queued": len(self._backlog),
                "running": running,
                "in_flight": len(self._inflight),
                "dispatched": self.dispatched,
                "completed": self.completed,
                "crashed_jobs": self.crashed_jobs,
                "worker_restarts": self.worker_restarts,
                "kill_escalated": self.kill_escalated,
                "deadline_cancelled": self.deadline_cancelled,
                "consecutive_deaths": self._consecutive_deaths,
                "breaker": self.breaker.snapshot(),
                "start_method": self.start_method,
                "draining": self._closing,
            }

    @property
    def degraded(self) -> bool:
        """True while the breaker is open: the fleet is in a crash loop
        and consumers should serve from cache only."""
        with self._lock:
            self.breaker.poll()
            return self.breaker.state == "open"

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._backlog)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- draining and shutdown ------------------------------------------

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no jobs are queued or running (True) or until
        ``timeout`` elapses (False)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle_changed:
            while self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle_changed.wait(timeout=remaining if remaining else 0.25)
            return True

    def close(self, *, drain: bool = True, grace: float = 30.0) -> None:
        """Stop the pool: optionally drain in-flight jobs, then retire
        every worker.  Safe to call twice."""
        with self._lock:
            if not self._started or self._stopped.is_set():
                self._closing = True
                return
            self._closing = True
        if drain:
            self.wait_idle(timeout=grace)
        with self._lock:
            # Anything still pending after the grace period is cancelled.
            for ticket in list(self._inflight.values()):
                self._deliver_locked(
                    ticket, error_payload(ticket.payload, "cancelled", "pool closed")
                )
            self._backlog.clear()
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):  # queue already torn down
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
        self._stopped.set()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        for worker in workers:
            worker.inbox.close()
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass
                worker.conn = None
