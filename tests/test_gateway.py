"""Tests for the gateway subsystem: worker pool, HTTP/WS server, auth,
rate limiting, backpressure, crash recovery and graceful drain."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.gateway import (
    GatewayConfig,
    HttpClient,
    RateLimiter,
    TokenAuth,
    WebSocketClient,
    WorkerPool,
    start_gateway,
)
from repro.gateway.pool import PoolClosedError
from repro.gateway.protocol import (
    OP_CLOSE,
    OP_TEXT,
    ws_accept_key,
    ws_encode_frame,
)
from repro.service import JobSpec, ResultCache
from repro.workloads import random_network
from repro.workloads.examples import example1_string


def spec_for(seed: int = 0, *, modules: int = 5) -> JobSpec:
    return JobSpec.from_network(random_network(modules=modules, seed=seed))


# -- module-level workers (must be picklable for the pool) -----------------


def echo_worker(payload: dict) -> dict:
    return {"status": "ok", "name": payload.get("name", "?"), "echo": payload,
            "metrics": {}, "timing": {}, "seconds": 0.001}


def napping_worker(payload: dict) -> dict:
    time.sleep(float(payload.get("nap", 2.0)))
    return {"status": "ok", "name": payload.get("name", "?"),
            "metrics": {}, "timing": {}, "seconds": 0.0}


def crash_once_worker(payload: dict) -> dict:
    marker = os.path.join(os.environ["REPRO_TEST_DIR"], payload["name"])
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(13)
    return echo_worker(payload)


def always_crash_worker(payload: dict) -> dict:
    os._exit(13)  # pragma: no cover


def staged_worker(payload: dict, progress=None) -> dict:
    if progress is not None:
        progress("alpha")
        progress("beta")
    return echo_worker(payload)


def collect(pool: WorkerPool, payloads: list[dict], timeout: float = 30.0) -> list[tuple[dict, int]]:
    """Submit payloads and wait for every callback (submission order)."""
    import threading

    results: dict[int, tuple[dict, int]] = {}
    done = threading.Event()

    def make_cb(i):
        def cb(result, attempts):
            results[i] = (result, attempts)
            if len(results) == len(payloads):
                done.set()
        return cb

    for i, payload in enumerate(payloads):
        pool.submit(payload, callback=make_cb(i))
    assert done.wait(timeout), f"only {len(results)}/{len(payloads)} jobs came back"
    return [results[i] for i in range(len(payloads))]


# -- WorkerPool ------------------------------------------------------------


class TestWorkerPool:
    def test_round_trip_and_ordering(self):
        with WorkerPool(2, worker=echo_worker) as pool:
            got = collect(pool, [{"name": f"job{i}", "i": i} for i in range(6)])
            assert [r["echo"]["i"] for r, _ in got] == list(range(6))
            assert all(r["status"] == "ok" for r, _ in got)
            assert all(attempts == 1 for _, attempts in got)

    def test_workers_stay_resident(self):
        with WorkerPool(1, worker=echo_worker) as pool:
            collect(pool, [{"name": "a"}])
            pids = {w["pid"] for w in pool.health()["workers"]}
            collect(pool, [{"name": "b"}, {"name": "c"}])
            assert {w["pid"] for w in pool.health()["workers"]} == pids
            assert pool.health()["worker_restarts"] == 0

    def test_crash_retried_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIR", str(tmp_path))
        with WorkerPool(1, worker=crash_once_worker, poll_interval=0.05) as pool:
            (result, attempts), = collect(pool, [{"name": "flaky"}])
            assert result["status"] == "ok"
            assert attempts == 2
            assert pool.health()["worker_restarts"] == 1

    def test_persistent_crash_reported(self):
        with WorkerPool(1, worker=always_crash_worker, poll_interval=0.05) as pool:
            (result, attempts), = collect(pool, [{"name": "doomed"}])
            assert result["status"] == "crashed"
            assert attempts == 2
            assert pool.health()["crashed_jobs"] == 1

    def test_crashed_worker_is_replaced(self):
        with WorkerPool(1, worker=always_crash_worker, poll_interval=0.05) as pool:
            collect(pool, [{"name": "boom"}])
            health = pool.health()
            assert health["alive"] == health["size"] == 1

    def test_in_worker_timeout(self):
        with WorkerPool(1, worker=napping_worker, timeout=0.2) as pool:
            (result, _), = collect(pool, [{"name": "sleepy", "nap": 30}])
            assert result["status"] == "timeout"
            # SIGALRM fired inside the worker: the process survived.
            assert pool.health()["worker_restarts"] == 0

    def test_stage_events_stream_in_order(self):
        events: list[dict] = []
        with WorkerPool(1, worker=staged_worker) as pool:
            import threading

            done = threading.Event()
            pool.submit(
                {"name": "staged"},
                callback=lambda *_: done.set(),
                events=events.append,
            )
            assert done.wait(10)
        kinds = [e.get("type") for e in events]
        assert kinds == ["dispatched", "stage", "stage"]
        assert [e["stage"] for e in events[1:]] == ["alpha", "beta"]

    def test_closed_pool_rejects_submits(self):
        pool = WorkerPool(1, worker=echo_worker)
        pool.start()
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.submit({"name": "late"})

    def test_close_drains_in_flight_jobs(self):
        pool = WorkerPool(1, worker=napping_worker)
        import threading

        results = []
        pool.submit({"name": "nap", "nap": 0.3}, callback=lambda r, a: results.append(r))
        pool.close(drain=True, grace=10.0)
        assert results and results[0]["status"] == "ok"

    def test_close_does_not_wait_out_a_poll_interval(self):
        # Once the last worker pipe closes, the collector must wake on
        # close() itself, not sleep out its poll interval first.
        pool = WorkerPool(1, worker=echo_worker, poll_interval=2.0)
        pool.start()
        collect(pool, [{"name": "one"}])
        started = time.perf_counter()
        pool.close()
        assert time.perf_counter() - started < 0.5

    def test_health_reflects_externally_killed_worker(self):
        with WorkerPool(1, worker=echo_worker, poll_interval=0.05) as pool:
            collect(pool, [{"name": "warm"}])
            old_pid = pool.health()["workers"][0]["pid"]
            os.kill(old_pid, signal.SIGKILL)
            time.sleep(0.1)
            pool.reap()  # what /healthz does synchronously
            health = pool.health()
            assert health["worker_restarts"] == 1
            assert health["alive"] == 1
            assert health["workers"][0]["pid"] != old_pid


# -- auth and rate limiting (unit) -----------------------------------------


class TestAuthUnit:
    def test_open_when_no_tokens(self):
        assert TokenAuth().authorize({}) is True

    def test_bearer_and_api_key(self):
        auth = TokenAuth(["s3cret"])
        assert auth.authorize({"authorization": "Bearer s3cret"})
        assert auth.authorize({"x-api-key": "s3cret"})
        assert not auth.authorize({"authorization": "Bearer wrong"})
        assert not auth.authorize({})

    def test_query_token_fallback(self):
        auth = TokenAuth(["s3cret"])
        assert auth.authorize({}, query_token="s3cret")
        assert not auth.authorize({}, query_token="wrong")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(TokenAuth.ENV_VAR, "envtok")
        assert TokenAuth.from_env().authorize({"x-api-key": "envtok"})


class TestRateLimiterUnit:
    def test_burst_then_reject_then_refill(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: now[0])
        assert limiter.check("c") == 0.0
        assert limiter.check("c") == 0.0
        wait = limiter.check("c")
        assert wait == pytest.approx(1.0)
        now[0] += 1.0
        assert limiter.check("c") == 0.0
        assert limiter.rejected == 1 and limiter.allowed == 3

    def test_clients_are_independent(self):
        limiter = RateLimiter(rate=0.001, burst=1, clock=lambda: 0.0)
        assert limiter.check("a") == 0.0
        assert limiter.check("b") == 0.0
        assert limiter.check("a") > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=1, jitter=-0.1)

    def test_jitter_is_additive_only(self):
        import random as _random

        limiter = RateLimiter(
            rate=1.0, burst=1, clock=lambda: 0.0,
            jitter=0.5, rng=_random.Random(7),
        )
        assert limiter.check("c") == 0.0  # grants are never jittered
        base = 1.0  # empty bucket at rate 1/s
        for _ in range(50):
            wait = limiter.check("c")
            assert base <= wait <= base * 1.5

    def test_retry_after_jitter_never_shrinks_the_wait(self):
        from repro.gateway.server import _retry_after

        for seconds in (0.0, 0.4, 2.0, 30.0):
            for _ in range(50):
                got = int(_retry_after(seconds))
                assert got >= max(1, int(seconds))
                assert got <= int(seconds + seconds * 0.5 + 1) + 1


# -- the served gateway ----------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One warm gateway shared by the happy-path tests: real pipeline
    worker, result cache, runlog."""
    root = tmp_path_factory.mktemp("gateway")
    config = GatewayConfig(
        workers=1,
        job_timeout=60.0,
        cache=ResultCache(root / "cache"),
    )
    from repro.obs import RunLog

    config.runlog = RunLog(root / "runlog.jsonl")
    handle = start_gateway(config)
    with handle:
        yield handle


@pytest.fixture()
def client(served):
    with HttpClient("127.0.0.1", served.port) as c:
        yield c


def submit_and_wait(client: HttpClient, spec: JobSpec) -> dict:
    posted = client.post("/v1/jobs", spec.to_dict())
    assert posted.status in (200, 202), posted.body
    job_id = posted.json()["id"]
    final = client.get(f"/v1/jobs/{job_id}?wait=30").json()
    assert final["status"] not in ("queued", "running"), final
    return final


class TestGatewayHTTP:
    def test_submit_poll_result_round_trip(self, client):
        final = submit_and_wait(client, spec_for(seed=1))
        assert final["status"] == "ok"
        assert final["metrics"]["nets"] >= 1
        result = client.get(f"/v1/jobs/{final['id']}/result").json()
        assert "escher" in result["payload"]
        svg = client.get(f"/v1/jobs/{final['id']}/svg")
        assert svg.status == 200
        assert svg.headers["content-type"].startswith("image/svg+xml")
        assert svg.body.startswith(b"<svg")

    def test_bad_spec_is_a_400(self, client):
        assert client.post("/v1/jobs", {"nonsense": True}).status == 400
        assert client.post("/v1/jobs", b"not json{").status == 400
        retired = spec_for(seed=1).to_dict()
        retired["eureka"]["engine"] = "intervals"
        posted = client.post("/v1/jobs", retired)
        assert posted.status == 400
        assert "intervals is no longer supported" in posted.json()["error"]

    def test_unknown_job_and_endpoint_are_404(self, client):
        assert client.get("/v1/jobs/j999999").status == 404
        assert client.get("/v1/nothing").status == 404

    def test_result_before_done_is_409(self, served):
        # A job that was never submitted can't be polled; use a fresh
        # slow-ish spec and race the result endpoint immediately.
        with HttpClient("127.0.0.1", served.port) as c:
            posted = c.post("/v1/jobs", spec_for(seed=2, modules=9).to_dict())
            job_id = posted.json()["id"]
            r = c.get(f"/v1/jobs/{job_id}/result")
            assert r.status in (200, 409)  # 409 unless it already finished
            final = c.get(f"/v1/jobs/{job_id}?wait=30").json()
            assert final["status"] == "ok"

    def test_cache_hit_dedup(self, client):
        spec = spec_for(seed=3)
        first = submit_and_wait(client, spec)
        assert first["cached"] is False
        again = client.post("/v1/jobs", spec.to_dict())
        assert again.status == 200  # served instantly, no queueing
        assert again.json()["cached"] is True
        assert again.json()["status"] == "ok"
        assert again.json()["id"] != first["id"]

    def test_jobs_listing(self, client):
        listing = client.get("/v1/jobs").json()
        assert listing["total"] >= 1
        assert listing["jobs"][0]["submitted_at"] >= listing["jobs"][-1]["submitted_at"]

    def test_websocket_event_ordering(self, served, client):
        spec = JobSpec.from_network(example1_string())
        posted = client.post("/v1/jobs", spec.to_dict())
        job_id = posted.json()["id"]
        with WebSocketClient("127.0.0.1", served.port, f"/v1/jobs/{job_id}/events") as ws:
            events = []
            while True:
                event = ws.recv_json()
                if event is None:
                    break
                events.append(event)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        names = [e["event"] for e in events]
        assert names[0] == "queued" and names[-1] == "done"
        assert "running" in names
        stages = [e["stage"] for e in events if e["event"] == "stage"]
        assert stages == ["placement", "routing"]
        assert names.index("running") < names.index("done")

    def test_healthz_shape(self, client):
        health = client.get("/healthz").json()
        assert health["status"] == "ok"
        assert health["pool"]["alive"] == health["pool"]["size"] == 1
        assert "queued" in health["jobs"]

    def test_healthz_sees_killed_worker_immediately(self, client):
        before = client.get("/healthz").json()["pool"]
        old_pid = before["workers"][0]["pid"]
        restarts = before["worker_restarts"]
        os.kill(old_pid, signal.SIGKILL)
        time.sleep(0.1)  # let the OS reap the child
        after = client.get("/healthz").json()["pool"]
        assert after["worker_restarts"] == restarts + 1
        assert after["alive"] == after["size"]  # replacement already forked
        assert after["workers"][0]["pid"] != old_pid

    def test_metrics_exposition(self, client):
        submit_and_wait(client, spec_for(seed=4))
        metrics = client.get("/metrics")
        assert metrics.status == 200
        assert metrics.headers["content-type"].startswith("text/plain")
        text = metrics.body.decode()
        assert "# TYPE repro_service_job_wall_s histogram" in text
        assert 'repro_service_job_wall_s_bucket{le="+Inf"}' in text
        assert 'repro_service_job_wall_s{quantile="0.5"}' in text
        assert 'repro_service_job_wall_s{quantile="0.95"}' in text
        assert "repro_service_jobs" in text
        assert "repro_gateway_workers_alive 1" in text
        assert "repro_gateway_http_requests" in text
        assert 'repro_gateway_workers{state="idle"} 1' in text
        assert 'repro_gateway_request_qps{endpoint="POST /v1/jobs",window="1m"}' in text

    def test_serve_runlog_records(self, served, client):
        submit_and_wait(client, spec_for(seed=5))
        records = served.gateway.config.runlog.runs(kind="serve")
        assert records
        last = records[-1]
        assert last.extra["status"] == "ok"
        assert last.extra["job_id"].startswith("j")
        assert last.spec_digest

    def test_finished_job_keeps_results_not_recorded_telemetry(self, served, client):
        """Once recorded, a finished job drops the worker's profile
        windows, search rows and congestion; its /result keeps the
        result, counters and trace id, and its run record the rest."""
        final = submit_and_wait(client, spec_for(seed=33, modules=9))
        assert final["status"] == "ok" and final["cached"] is False
        payload = client.get(f"/v1/jobs/{final['id']}/result").json()["payload"]
        for key in ("profile", "search", "congestion"):
            assert key not in payload, key
        assert payload["escher"].startswith("#TUE-ES")
        assert payload["counters"]["counters"]["route.connections"] > 0
        assert payload["trace_id"] == final["trace_id"]
        record = next(
            r for r in served.gateway.config.runlog.runs(kind="serve")
            if r.extra["job_id"] == final["id"]
        )
        assert record.profile_windows
        assert record.extra["search"]["nets"]
        assert record.congestion["cells"]


class TestGatewayTelemetry:
    """End-to-end request tracing: traceparent continuation, one span
    tree per served job, trace ids on every surface, live stats."""

    def test_traceparent_continuation_and_echo(self, client):
        incoming = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        posted = client.request(
            "POST", "/v1/jobs", spec_for(seed=21).to_dict(),
            headers={"traceparent": incoming},
        )
        assert posted.status in (200, 202)
        assert posted.headers["x-request-id"] == "ab" * 16
        _version, trace_id, span_id, _flags = posted.headers["traceparent"].split("-")
        assert trace_id == "ab" * 16
        assert span_id != "cd" * 8  # a fresh child span, not the caller's

    def test_request_id_minted_without_traceparent(self, client):
        response = client.get("/healthz")
        request_id = response.headers["x-request-id"]
        assert len(request_id) == 32 and request_id != "0" * 32
        assert response.headers["traceparent"].startswith(f"00-{request_id}-")

    def test_trace_id_survives_fork_and_tags_everything(self, served, client):
        incoming = "00-" + "5a" * 16 + "-" + "0f" * 8 + "-01"
        posted = client.request(
            "POST", "/v1/jobs", spec_for(seed=22).to_dict(),
            headers={"traceparent": incoming},
        )
        job_id = posted.json()["id"]
        final = client.get(f"/v1/jobs/{job_id}?wait=30").json()
        assert final["trace_id"] == "5a" * 16
        payload = client.get(f"/v1/jobs/{job_id}/result").json()["payload"]
        assert payload["trace_id"] == "5a" * 16  # crossed the fork boundary
        records = [
            r for r in served.gateway.config.runlog.runs(kind="serve")
            if r.extra["job_id"] == job_id
        ]
        assert records and records[0].extra["trace_id"] == "5a" * 16

    def test_trace_endpoint_returns_one_connected_tree(self, client):
        final = submit_and_wait(client, spec_for(seed=23))
        doc = client.get(f"/v1/jobs/{final['id']}/trace")
        assert doc.status == 200
        events = doc.json()["traceEvents"]
        names = [e["name"] for e in events]
        assert names[0] == "gateway.request"
        for required in ("gateway.auth", "gateway.parse", "queue.wait",
                         "worker.exec", "pablo.place", "eureka.route"):
            assert required in names, names
        root = events[0]
        end = root["ts"] + root["dur"]
        assert all(root["ts"] <= e["ts"] <= end + 1 for e in events)

    def test_cached_replay_gets_its_own_trace_id(self, client):
        spec = spec_for(seed=24)
        first = submit_and_wait(client, spec)
        again = client.post("/v1/jobs", spec.to_dict()).json()
        assert again["cached"] is True
        assert again["trace_id"] != first["trace_id"]

    def test_ws_handshake_and_events_carry_trace(self, served, client):
        posted = client.post("/v1/jobs", spec_for(seed=25, modules=8).to_dict())
        job_id = posted.json()["id"]
        with WebSocketClient("127.0.0.1", served.port, f"/v1/jobs/{job_id}/events") as ws:
            request_id = ws.headers["x-request-id"]
            assert len(request_id) == 32
            events = []
            while True:
                event = ws.recv_json()
                if event is None:
                    break
                events.append(event)
        assert events
        # Every event in the stream is stamped with the job's trace id.
        assert len({e["trace"] for e in events}) == 1

    def test_stats_reports_live_windows(self, client):
        submit_and_wait(client, spec_for(seed=26))
        stats = client.get("/v1/stats").json()
        assert set(stats["windows"]) == {"1m", "5m", "15m"}
        post = stats["endpoints"]["POST /v1/jobs"]["1m"]
        assert post["count"] >= 1 and post["qps"] > 0
        assert post["p95"] >= post["p50"] >= 0
        assert "worker.exec" in stats["stages"]
        assert stats["gauges"]["workers"]["size"] == 1
        assert stats["totals"]["gateway.http_requests"] >= 1


class TestSlowRequestCapture:
    def _config(self, tmp_path, threshold):
        from repro.obs import RunLog

        config = GatewayConfig(workers=1, slow_threshold=threshold)
        config.runlog = RunLog(tmp_path / "runlog.jsonl")
        return config

    def test_zero_threshold_captures_everything(self, tmp_path):
        config = self._config(tmp_path, 0.0)
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                final = submit_and_wait(c, spec_for(seed=27))
        records = config.runlog.runs(kind="slow")
        assert records
        slow = records[-1]
        assert slow.extra["trace_id"] == final["trace_id"]
        breakdown = slow.extra["breakdown"]
        assert set(breakdown) >= {
            "auth_s", "parse_s", "queue_wait_s", "worker_exec_s", "total_s"
        }
        assert breakdown["total_s"] >= breakdown["worker_exec_s"] >= 0
        spans = slow.extra["spans"]
        assert spans and spans[0]["name"] == "gateway.request"
        assert any(s["name"] == "worker.exec" for s in spans[0]["children"])

    def test_none_threshold_disables_capture(self, tmp_path):
        config = self._config(tmp_path, None)
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                submit_and_wait(c, spec_for(seed=28))
        assert config.runlog.runs(kind="slow") == []


class TestProfiler:
    def test_on_demand_profile_returns_flamegraph(self, client):
        captured = client.post("/v1/profile?seconds=0.3", {})
        assert captured.status == 200, captured.body
        assert captured.headers["content-type"].startswith("text/html")
        html = captured.body.decode()
        assert html.startswith("<!DOCTYPE html>")
        assert "Flamegraph" in html
        # The event loop thread is labeled, so its samples attribute.
        assert "gateway.loop" in html
        assert int(captured.headers["x-profile-samples"]) > 0

    def test_profile_rejects_bad_parameters(self, client):
        assert client.post("/v1/profile?seconds=nope", {}).status == 400
        assert client.post("/v1/profile?hz=nope", {}).status == 400
        # Out-of-range durations clamp instead of erroring (or hanging).
        quick = client.post("/v1/profile?seconds=0.0001", {})
        assert quick.status == 200

    def test_profile_requires_auth(self):
        config = GatewayConfig(workers=1, auth=TokenAuth(["hunter2"]))
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as anon:
                assert anon.post("/v1/profile?seconds=0.1", {}).status == 401
            with HttpClient("127.0.0.1", served.port, token="hunter2") as authed:
                assert authed.post("/v1/profile?seconds=0.1", {}).status == 200

    def test_stats_and_metrics_expose_sampler(self, client):
        profile = client.get("/v1/stats").json()["profile"]
        assert profile["running"] is True
        assert profile["hz"] > 0
        assert profile["ticks"] > 0
        text = client.get("/metrics").body.decode()
        assert "repro_gateway_sampler_running 1" in text
        assert "repro_gateway_sampler_ticks_total" in text

    def test_serve_records_ship_worker_profile(self, served, client):
        """Every pipeline job's runlog record carries the worker-side
        profile windows that overlapped its run."""
        final = submit_and_wait(client, spec_for(seed=31, modules=9))
        assert final["status"] == "ok"
        records = served.gateway.config.runlog.runs(kind="serve")
        windows = records[-1].profile_windows
        assert windows, "worker shipped no profile windows"
        assert all(w["samples"] > 0 for w in windows)
        merged_stacks = {k for w in windows for k in w["stacks"]}
        # Worker job execution runs under tracer spans, so stacks root
        # in named spans rather than anonymous thread ids.
        assert any(k.startswith(("job", "worker")) for k in merged_stacks), (
            sorted(merged_stacks)[:5]
        )

    def test_profile_shipping_survives_worker_crash(self, served, client):
        """A replacement worker (fresh fork) restarts its own sampler and
        keeps shipping windows — the dead parent sampler must not leak."""
        pool = served.gateway.pool
        old_pid = pool.health()["workers"][0]["pid"]
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.time() + 10
        while time.time() < deadline:
            health = pool.health()
            if health["alive"] == health["size"] and (
                health["workers"][0]["pid"] != old_pid
            ):
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker was not replaced")
        submitted_at = time.time()
        final = submit_and_wait(client, spec_for(seed=32, modules=9))
        assert final["status"] == "ok"
        records = served.gateway.config.runlog.runs(kind="serve")
        windows = records[-1].profile_windows
        assert windows, "replacement worker shipped no profile windows"
        # Fresh child sampler: no window predates the replacement fork.
        assert all(w["ended_at"] >= submitted_at for w in windows)


class TestGatewayGuards:
    def test_auth_401_and_authorized_access(self):
        config = GatewayConfig(workers=1, auth=TokenAuth(["hunter2"]))
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as anon:
                denied = anon.get("/v1/jobs")
                assert denied.status == 401
                assert "bearer" in denied.headers["www-authenticate"].lower()
                # Probes stay open during credential rotation.
                assert anon.get("/healthz").status == 200
                assert anon.get("/metrics").status == 200
            with HttpClient("127.0.0.1", served.port, token="hunter2") as authed:
                assert authed.get("/v1/jobs").status == 200
            with HttpClient("127.0.0.1", served.port, token="wrong") as bad:
                assert bad.get("/v1/jobs").status == 401

    def test_rate_limit_429_with_retry_after(self):
        config = GatewayConfig(
            workers=1, rate_limit=RateLimiter(rate=0.5, burst=2)
        )
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                assert c.get("/v1/jobs").status == 200
                assert c.get("/v1/jobs").status == 200
                limited = c.get("/v1/jobs")
                assert limited.status == 429
                assert int(limited.headers["retry-after"]) >= 1
                # The unguarded endpoints are never limited.
                assert c.get("/healthz").status == 200

    def test_queue_full_503_and_inflight_dedup(self):
        pool = WorkerPool(1, worker=napping_worker)
        config = GatewayConfig(workers=1, max_queue=1)
        with start_gateway(config, pool=pool) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                first = c.post("/v1/jobs", spec_for(seed=6).to_dict())
                assert first.status == 202
                # Same digest while in flight: coalesced, not re-queued.
                dup = c.post("/v1/jobs", spec_for(seed=6).to_dict())
                assert dup.status == 202
                assert dup.json()["deduped"] is True
                assert dup.json()["id"] == first.json()["id"]
                second = c.post("/v1/jobs", spec_for(seed=7).to_dict())
                assert second.status == 202
                full = c.post("/v1/jobs", spec_for(seed=8).to_dict())
                assert full.status == 503
                assert "retry-after" in full.headers
            served.stop(drain=False)

    def test_crash_retry_through_gateway(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIR", str(tmp_path))
        pool = WorkerPool(1, worker=crash_once_worker, poll_interval=0.05)
        with start_gateway(GatewayConfig(workers=1), pool=pool) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                posted = c.post("/v1/jobs", spec_for(seed=9).to_dict())
                final = c.get(f"/v1/jobs/{posted.json()['id']}?wait=30").json()
                assert final["status"] == "ok"
                assert final["attempts"] == 2
                health = c.get("/healthz").json()
                assert health["pool"]["worker_restarts"] >= 1


class TestGatewayDrain:
    def test_draining_gateway_rejects_new_jobs(self):
        with start_gateway(GatewayConfig(workers=1)) as served:
            served.gateway.begin_drain()
            with HttpClient("127.0.0.1", served.port) as c:
                rejected = c.post("/v1/jobs", spec_for(seed=10).to_dict())
                assert rejected.status == 503
                health = c.get("/healthz").json()
                assert health["status"] == "draining"

    def test_sigterm_drains_gracefully(self, tmp_path):
        """End-to-end: real ``artwork-serve`` process, real SIGTERM."""
        runlog = tmp_path / "runlog.jsonl"
        code = (
            "import sys; from repro.cli import artwork_serve_main; "
            f"sys.exit(artwork_serve_main(['--port','0','--workers','1',"
            f"'--runlog',{str(runlog)!r}]))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening" in banner, banner
            port = int(banner.rsplit(":", 1)[1].split()[0])
            with HttpClient("127.0.0.1", port) as c:
                final = submit_and_wait(c, spec_for(seed=11))
                assert final["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out and "stopped" in out
        assert [json.loads(line)["kind"] for line in runlog.read_text().splitlines()] == ["serve"]

    def test_sigterm_to_a_worker_keeps_daemon_serving(self):
        """A worker owns its signals: SIGTERM kills that worker only, and
        the supervisor respawns it while the daemon keeps serving."""
        code = (
            "import sys; from repro.cli import artwork_serve_main; "
            "sys.exit(artwork_serve_main(['--port','0','--workers','1']))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("ARTWORK_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening" in banner, banner
            port = int(banner.rsplit(":", 1)[1].split()[0])
            with HttpClient("127.0.0.1", port) as c:
                (victim,) = [w["pid"] for w in c.get("/healthz").json()["pool"]["workers"]]
                os.kill(victim, signal.SIGTERM)
                deadline = time.monotonic() + 20
                while True:
                    pool = c.get("/healthz").json()["pool"]
                    pids = [w["pid"] for w in pool["workers"] if w["alive"]]
                    if pool["worker_restarts"] >= 1 and pids and victim not in pids:
                        break
                    assert time.monotonic() < deadline, pool
                    time.sleep(0.1)
                final = submit_and_wait(c, spec_for(seed=12))
                assert final["status"] == "ok"
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert out.count("draining") == 1, out


# -- protocol odds and ends ------------------------------------------------


class TestProtocol:
    def test_ws_accept_key_rfc_vector(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            ws_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_ws_frame_sizes(self):
        for size in (0, 1, 125, 126, 65535, 65536):
            frame = ws_encode_frame(b"x" * size)
            assert frame[0] == 0x80 | OP_TEXT
            assert len(frame) >= size + 2
        close = ws_encode_frame(b"", opcode=OP_CLOSE)
        assert close[0] == 0x80 | OP_CLOSE

    def test_http_413_on_oversized_body(self, served):
        # The server rejects on the Content-Length header alone, before
        # the body arrives — so only the head is sent here.
        import socket

        with socket.create_connection(("127.0.0.1", served.port), timeout=10) as sock:
            declared = served.gateway.config.max_body + 1
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nhost: t\r\n"
                b"content-length: " + str(declared).encode() + b"\r\n\r\n"
            )
            status = sock.recv(4096).split(b" ")[1]
            assert status == b"413"
