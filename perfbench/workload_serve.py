"""``serve``: an ``artwork-serve`` daemon driven over HTTP.

The daemon runs with ``--workers 2``, a result cache and a journal.  One
client process drives it closed-loop over 2 keep-alive connections;
each connection sends its next request when the previous result is in
hand.  Fresh jobs are seeded random networks of 6-20 modules; every
third request of a connection repeats the spec of one of that
connection's own finished jobs, so it is a cache hit and never a dedup.
A miss pays HTTP, canonicalisation, pool IPC, the pipeline, cache write
and journal; a hit pays parse, digest and cache read.  So gateway and
cache changes show here, router changes far less.

A miss is timed from its ``POST /v1/jobs`` to the parsed
``/v1/jobs/{id}/result`` (via a ``?wait=`` long-poll), a hit from its
``POST`` to its parsed result.  The measured requests run as
``WINDOWS`` back-to-back windows that both connections enter and leave
together; each timing is the median over the windows, so a burst of
CPU steal from neighbouring VMs moves at most a minority of them.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.service import JobSpec
from repro.workloads.random_nets import RandomNetworkSpec, random_network

import checks
import harness
import layers

WORKERS = 2
CONNECTIONS = 2
#: Every third request of a connection repeats one of its finished jobs.
REPEAT_EVERY = 3
#: Requests per second of ``--seconds`` (what this mix sustains on a
#: 2-core Xeon VM); fixes the request count of a run.
RATE = 40
#: Measured windows per run (see the module docstring).
WINDOWS = 5
#: Fresh jobs per connection sent before timing starts.
WARMUP = 10
SETUP_STARTS = 9
MIN_MODULES, MAX_MODULES = 6, 20


def _spec(seed: int, index: int) -> JobSpec:
    """Fresh job ``index``: sizes cycle through the whole range, so every
    seed gets the same size mix and only the wiring changes."""
    network = random_network(
        RandomNetworkSpec(
            modules=MIN_MODULES + index % (MAX_MODULES - MIN_MODULES + 1),
            seed=seed * 100_000 + index,
        )
    )
    return JobSpec.from_network(network, name=f"serve_s{seed}_{index}")


class Plan:
    """The run's requests, fixed by the seed: per connection, the warm-up
    jobs and then the measured sequence of fresh jobs and repeats."""

    REPEAT = None

    def __init__(self, seed: int, requests: int) -> None:
        unit = CONNECTIONS * REPEAT_EVERY * WINDOWS
        requests = max(unit, requests - requests % unit)
        per_conn = requests // CONNECTIONS
        fresh_per_conn = per_conn - per_conn // REPEAT_EVERY
        self.seed = seed
        self.specs: dict[str, JobSpec] = {}
        self.bodies: dict[str, bytes] = {}
        self.warmup: list[list[str]] = []
        self.sequence: list[list[str | None]] = []
        index = 0
        for c in range(CONNECTIONS):
            warm = []
            for _ in range(WARMUP):
                warm.append(self._add(index))
                index += 1
            self.warmup.append(warm)
        fresh = [[] for _ in range(CONNECTIONS)]
        for k in range(fresh_per_conn * CONNECTIONS):
            fresh[k % CONNECTIONS].append(self._add(index))
            index += 1
        for c in range(CONNECTIONS):
            queue = iter(fresh[c])
            self.sequence.append([
                self.REPEAT if k % REPEAT_EVERY == REPEAT_EVERY - 1 else next(queue)
                for k in range(per_conn)
            ])
        self.requests = requests
        self.repeats = requests // REPEAT_EVERY
        self.per_window = per_conn // WINDOWS

    def window(self, conn: int, k: int) -> list[str | None]:
        return self.sequence[conn][k * self.per_window:(k + 1) * self.per_window]

    def _add(self, index: int) -> str:
        spec = _spec(self.seed, index)
        self.specs[spec.name] = spec
        self.bodies[spec.name] = json.dumps(spec.to_dict()).encode()
        return spec.name


class Daemon:
    """One ``artwork-serve`` process group with a fresh cache and journal."""

    def __init__(self, directory: Path, spans: Path | None = None) -> None:
        directory.mkdir(parents=True)
        self.log_path = directory / "daemon.log"
        argv = [
            sys.executable, str(harness.BENCH / "serve_launcher.py"),
            "--port", "0", "--workers", str(WORKERS),
            "--cache", str(directory / "cache"),
            "--journal", str(directory / "journal.jsonl"),
        ]
        extra = {layers.SPANS_ENV: str(spans)} if spans is not None else {}
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=harness.ROOT, env=harness.child_env(**extra),
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        self.port = 0
        self.pids: list[int] = [self.proc.pid]

    def wait_healthy(self, timeout: float = 90.0) -> float:
        """Seconds from launch until ``/healthz`` reports every worker up."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise harness.BenchError(f"artwork-serve exited: {self.log_path.read_text()[-2000:]}")
            if not self.port:
                text = self.log_path.read_text()
                # Only whole lines: the daemon may be mid-write.
                for line in text[: text.rfind("\n") + 1].splitlines():
                    if "listening on http://" in line:
                        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.port:
                health = self.health()
                if health is not None:
                    elapsed = time.perf_counter() - self.started
                    self.pids = [self.proc.pid] + [w["pid"] for w in health["pool"]["workers"]]
                    return elapsed
            time.sleep(0.005)
        raise harness.BenchError("artwork-serve did not become healthy")

    def health(self) -> dict | None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = json.loads(response.read())
        except (OSError, ValueError):
            return None
        finally:
            conn.close()
        if response.status != 200 or body["pool"]["alive"] != WORKERS:
            return None
        return body

    def cpu_s(self) -> float:
        return sum(harness.proc_cpu_s(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return max(harness.proc_hwm_mb(pid) for pid in self.pids)

    def kill(self) -> None:
        harness.kill_group(self.proc)


class Client:
    """One closed-loop keep-alive connection."""

    def __init__(self, port: int, plan: Plan, conn_id: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.plan = plan
        self.rng = random.Random(f"repeat-{plan.seed}-{conn_id}")
        self.finished: list[str] = []
        self.records: list[dict] = []
        self.error: BaseException | None = None

    def _call(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        return response.status, json.loads(response.read())

    def submit(self, name: str) -> dict:
        started = time.perf_counter()
        status, body = self._call("POST", "/v1/jobs", self.plan.bodies[name])
        posted = time.perf_counter()
        record = {"name": name, "post_s": posted - started, "wait_s": 0.0}
        if status == 200 and body.get("cached"):
            record["kind"] = "hit"
        elif status == 202:
            record["kind"] = "dedup" if body.get("deduped") else "miss"
            while body.get("status") not in ("ok", "error", "timeout", "crashed", "cancelled"):
                status, body = self._call("GET", f"/v1/jobs/{body['id']}?wait=60")
            record["wait_s"] = time.perf_counter() - posted
        else:
            record.update(kind="reject", status=status, latency_s=posted - started)
            return record
        status, result = self._call("GET", f"/v1/jobs/{body['id']}/result")
        record["latency_s"] = time.perf_counter() - started
        record["payload"] = result.get("payload") or {}
        return record

    def warm(self, names: list[str]) -> None:
        for name in names:
            self.submit(name)

    def drive(self, conn: int, start: threading.Barrier, end: threading.Barrier) -> None:
        try:
            for k in range(WINDOWS):
                start.wait()
                for name in self.plan.window(conn, k):
                    if name is Plan.REPEAT:
                        name = self.rng.choice(self.finished)
                    record = self.submit(name)
                    record["window"] = k
                    self.records.append(record)
                    if record["kind"] == "miss":
                        self.finished.append(name)
                end.wait()
        except BaseException as exc:  # reported by the main thread
            self.error = exc
            start.abort()
            end.abort()


def _phase(daemon: Daemon, plan: Plan) -> dict:
    """Warm up, then run the plan's windows on every connection at once."""
    clients = [Client(daemon.port, plan, c) for c in range(CONNECTIONS)]
    for client, names in zip(clients, plan.warmup):
        client.warm(names)
    start = threading.Barrier(CONNECTIONS + 1, timeout=300)
    end = threading.Barrier(CONNECTIONS + 1, timeout=300)
    threads = [
        threading.Thread(target=client.drive, args=(c, start, end))
        for c, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    windows = []
    client0 = time.process_time()
    try:
        for _ in range(WINDOWS):
            cpu0, wall0 = daemon.cpu_s(), time.perf_counter()
            start.wait()
            end.wait()
            windows.append((time.perf_counter() - wall0, daemon.cpu_s() - cpu0))
    except threading.BrokenBarrierError:
        pass  # a client failed; its error is raised below
    except BaseException:
        start.abort()
        end.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    client_cpu = time.process_time() - client0
    health = daemon.health()
    for client in clients:
        client.http.close()
    errors = sorted(
        (c.error for c in clients if c.error is not None),
        key=lambda e: isinstance(e, threading.BrokenBarrierError),
    )
    if errors:
        raise harness.BenchError(f"client failed: {errors[0]!r}")
    records = [r for client in clients for r in client.records]
    per_window = [[r for r in records if r["window"] == k] for k in range(WINDOWS)]
    return {
        "wall": sum(wall for wall, _ in windows),
        "cpu": sum(cpu for _, cpu in windows),
        "jobs_per_s": statistics.median(
            len(rs) / wall for rs, (wall, _) in zip(per_window, windows)
        ),
        "cpu_s_per_job": statistics.median(
            cpu / len(rs) for rs, (_, cpu) in zip(per_window, windows)
        ),
        "job_s_p50": statistics.median(
            statistics.median(r["latency_s"] for r in rs if r["kind"] == "miss")
            for rs in per_window
        ),
        "rss": daemon.peak_rss_mb(),
        "client_cpu": client_cpu,
        "restarts": health["pool"]["worker_restarts"] if health else -1,
        "records": records,
    }


def _check(plan: Plan, phase: dict, problems: list[str], counts: dict) -> int:
    """Check one phase's outputs; returns the requests that passed."""
    records = phase["records"]
    kinds = {k: sum(r["kind"] == k for r in records) for k in ("miss", "hit", "dedup", "reject")}
    expected = {"miss": plan.requests - plan.repeats, "hit": plan.repeats, "dedup": 0, "reject": 0}
    if kinds != expected:
        problems.append(f"request mix {kinds} != planned {expected}")
    if phase["restarts"] != 0:
        problems.append(f"worker pool restarted workers ({phase['restarts']})")
    original = {r["name"]: r["payload"].get("escher") for r in records if r["kind"] == "miss"}
    ok = 0
    for r in records:
        if r["kind"] == "miss":
            job_problems = checks.check_payload(plan.specs[r["name"]], r["payload"])
            if not job_problems:
                values = checks.payload_counts(r["payload"])
                if counts.setdefault(r["name"], values) != values:
                    job_problems.append(f"counts {values} != {counts[r['name']]} earlier")
        elif r["kind"] == "hit":
            same = r["payload"].get("escher") == original.get(r["name"])
            job_problems = [] if same else [f"{r['name']}: hit ESCHER differs from its miss"]
        else:
            job_problems = [f"{r['name']}: {r['kind']}"]
        problems += job_problems
        ok += not job_problems
    return ok


def run(seed: int, seconds: int, trace_dir: Path | None, work: Path) -> dict:
    plan = Plan(seed, round(seconds * RATE))
    daemons: list[Daemon] = []
    try:
        setup = []
        for i in range(SETUP_STARTS + 1):
            daemons.append(Daemon(work / f"daemon{i}"))
            elapsed = daemons[-1].wait_healthy()
            if i:
                setup.append(elapsed)
            if i < SETUP_STARTS:
                daemons[-1].kill()
        phase = _phase(daemons[-1], plan)
        daemons[-1].kill()
        traced = None
        if trace_dir is not None:
            daemons.append(Daemon(work / "daemon-traced", spans=trace_dir))
            daemons[-1].wait_healthy()
            traced = _phase(daemons[-1], plan)
            daemons[-1].kill()
    finally:
        for daemon in daemons:
            daemon.kill()

    problems: list[str] = []
    counts: dict[str, dict[str, int]] = {}
    ok = _check(plan, phase, problems, counts)
    if traced is not None:
        _check(plan, traced, problems, counts)
    problems += harness.record_counts("serve", counts)

    records = phase["records"]
    misses = [r for r in records if r["kind"] == "miss"]
    hits = [r for r in records if r["kind"] == "hit"]
    miss_latency = [r["latency_s"] for r in misses]
    e2e = {
        "setup_s": harness.median(setup),
        "cpu_s_per_job": phase["cpu_s_per_job"],
        "ok_frac": ok / len(records),
        **harness.quality(
            [r["payload"]["metrics"] for r in misses if r["payload"].get("status") == "ok"]
        ),
        "peak_rss_mb": phase["rss"],
    }
    result = {
        "attempted": len(records),
        "failed": len(records) - ok,
        "problems": problems,
        "e2e": e2e,
        "samples": {"setup_s": len(setup), "cpu_s_per_job": WINDOWS},
        "notes": {
            "job_s_p50": phase["job_s_p50"],
            "jobs_per_s": phase["jobs_per_s"],
            "hit_s_p50": harness.median(r["latency_s"] for r in hits),
            "hit_samples": len(hits),
            "job_s_p90": harness.p90(miss_latency),
            "misses": len(misses),
            "client_cpu_s_per_job": phase["client_cpu"] / len(records),
        },
        "fresh_jobs": len(misses),
    }
    if traced is not None:
        t_records = traced["records"]
        t_misses = [r for r in t_records if r["kind"] == "miss"]
        result["fresh_jobs"] = len(t_misses)
        result["job_seconds"] = sum(r["payload"].get("seconds", 0.0) for r in t_misses)
        result["per_layer_extra"] = {
            "trace.overhead_frac": (traced["cpu"] / len(t_records))
            / (phase["cpu"] / len(records)) - 1.0,
            "gateway.post_s_p50": harness.median(r["post_s"] for r in t_records),
            "gateway.wait_s_p50": harness.median(r["wait_s"] for r in t_misses),
            "gateway.overhead_s_p50": harness.median(
                r["latency_s"] - r["payload"].get("seconds", 0.0) for r in t_misses
            ),
            "gateway.hits": sum(r["kind"] == "hit" for r in t_records),
            "gateway.deduped": sum(r["kind"] == "dedup" for r in t_records),
            "gateway.rejects": sum(r["kind"] == "reject" for r in t_records),
        }
    return result
