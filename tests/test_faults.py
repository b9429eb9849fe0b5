"""Chaos suite: the fault-injection registry itself, plus every
injection point driven end to end — cache corruption recovery, worker
crash supervision, IPC loss, the circuit breaker's trip/heal cycle,
deadline propagation, and journal append failures."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.faults import (
    CRASH_EXIT_CODE,
    ENV_FAULTS,
    ENV_SEED,
    Fault,
    FaultInjected,
    FaultRegistry,
    FaultSpecError,
    get_faults,
    parse_spec,
    set_faults,
)
from repro.gateway import (
    CircuitBreaker,
    GatewayConfig,
    HttpClient,
    JobJournal,
    WorkerPool,
    start_gateway,
)
from repro.service import BatchScheduler, JobSpec, ResultCache
from repro.workloads import random_network

from .test_gateway import collect, echo_worker, napping_worker


def spec_for(seed: int = 0, *, modules: int = 5) -> JobSpec:
    return JobSpec.from_network(random_network(modules=modules, seed=seed))


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    """Every test leaves the process-global registry empty."""
    yield
    set_faults(FaultRegistry(""))


# -- spec grammar -----------------------------------------------------------


class TestFaultSpec:
    def test_full_grammar(self):
        table = parse_spec("cache.read=io:0.5,worker.exec=crash,journal.append=sleep:1:2.5")
        assert table["cache.read"].kind == "io"
        assert table["cache.read"].probability == 0.5
        assert table["worker.exec"].kind == "crash"
        assert table["worker.exec"].probability == 1.0
        assert table["journal.append"].arg == 2.5

    def test_empty_and_whitespace(self):
        assert parse_spec("") == {}
        assert parse_spec(" , ,") == {}

    def test_bad_specs_raise(self):
        for bad in ("nokind", "p=warp", "p=io:nan:x", "p=io:2.0", "p=io:0.5:1:extra"):
            with pytest.raises(FaultSpecError):
                parse_spec(bad)

    def test_points_and_roundtrip(self):
        registry = FaultRegistry("a=io:0.25,b=sleep:1:3")
        assert registry.active
        assert registry.points() == {"a": "io:0.25", "b": "sleep:1:3"}
        assert registry.fired() == {"a": 0, "b": 0}


class TestFaultRegistry:
    def test_probability_draws_are_deterministic_per_seed(self):
        def draws(seed):
            fault = Fault("p", "io", probability=0.5, seed=seed)
            return [fault.should_fire() for _ in range(64)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_check_counts_fires(self):
        registry = FaultRegistry("p=io")
        assert registry.check("other") is None
        assert registry.check("p").kind == "io"
        assert registry.fired() == {"p": 1}

    def test_fire_io_raises_fault_injected(self):
        registry = FaultRegistry("p=io")
        with pytest.raises(FaultInjected) as err:
            registry.fire("p")
        assert isinstance(err.value, OSError)
        assert err.value.point == "p"

    def test_fire_sleep_blocks(self):
        registry = FaultRegistry("p=sleep:1:0.05")
        started = time.perf_counter()
        registry.fire("p")
        assert time.perf_counter() - started >= 0.05

    def test_global_registry_reads_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULTS, "x=io:0.5")
        monkeypatch.setenv(ENV_SEED, "9")
        set_faults(None)  # force a lazy rebuild
        registry = get_faults()
        assert registry.points() == {"x": "io:0.5"}
        assert registry.seed == 9

    def test_inactive_registry_is_a_noop(self):
        registry = FaultRegistry("")
        assert not registry.active
        registry.fire("anything")  # must not raise


# -- cache fault points -----------------------------------------------------


class TestCacheFaults:
    def _cached(self, tmp_path):
        from repro.formats.escher import MAGIC

        cache = ResultCache(tmp_path / "cache")
        spec = spec_for(seed=41)
        cache.put(spec, {"status": "ok", "escher": MAGIC + "\n",
                         "metrics": {}, "timing": {}, "seconds": 0.01})
        return cache, spec

    def test_read_fault_is_a_recovered_miss(self, tmp_path):
        cache, spec = self._cached(tmp_path)
        set_faults(FaultRegistry("cache.read=io"))
        assert cache.get(spec) is None  # absorbed as corruption
        assert cache.stats.corrupt == 1
        assert cache.stats.evictions == 1
        set_faults(FaultRegistry(""))
        # The poisoned entry was evicted; a re-store works again.
        from repro.formats.escher import MAGIC

        cache.put(spec, {"status": "ok", "escher": MAGIC + "\n",
                         "metrics": {}, "timing": {}, "seconds": 0.01})
        assert cache.get(spec) is not None

    def test_write_fault_surfaces_as_oserror(self, tmp_path):
        cache, spec = self._cached(tmp_path)
        set_faults(FaultRegistry("cache.write=io"))
        with pytest.raises(OSError):
            cache.put(spec, {"status": "ok", "escher": "", "metrics": {},
                             "timing": {}, "seconds": 0.0})

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache, spec = self._cached(tmp_path)
        entry = cache.entry_dir(spec.digest)
        assert not list(entry.glob("*.tmp"))
        assert (entry / "result.json").exists()


# -- worker / IPC fault points (the supervised pool) -------------------------


class TestWorkerFaults:
    def test_worker_exec_crash_is_supervised(self):
        set_faults(FaultRegistry("worker.exec=crash"))
        with WorkerPool(1, worker=echo_worker, poll_interval=0.05,
                        restart_backoff=0.01) as pool:
            (result, attempts), = collect(pool, [{"name": "doomed"}])
            assert result["status"] == "crashed"
            assert attempts == 2
            health = pool.health()
            assert health["worker_restarts"] >= 2
            assert health["alive"] == 1  # supervision replaced the corpse

    def test_ipc_loss_is_reclaimed_by_the_timeout_backstop(self):
        set_faults(FaultRegistry("pool.ipc=io"))
        with WorkerPool(1, worker=echo_worker, timeout=0.3, kill_grace=0.3,
                        poll_interval=0.05) as pool:
            (result, _), = collect(pool, [{"name": "lost"}], timeout=30.0)
            # The work happened but the result message was dropped; the
            # parent's only move is the kill backstop.
            assert result["status"] == "timeout"

    def test_crash_exit_code_is_distinct(self):
        assert CRASH_EXIT_CODE == 13


# -- failpoints reach batch runs (the scheduler fans out on the pool) --------


class TestBatchFaults:
    def test_worker_exec_crash_is_supervised_in_batch_runs(self):
        set_faults(FaultRegistry("worker.exec=crash"))
        specs = [spec_for(0), spec_for(1)]
        outcomes = BatchScheduler(max_workers=1, serial_threshold=None).run(specs)
        assert [o.spec.name for o in outcomes] == [s.name for s in specs]
        assert [o.status for o in outcomes] == ["crashed", "crashed"]
        assert [o.attempts for o in outcomes] == [2, 2]
        assert multiprocessing.active_children() == []

    def test_worker_exec_io_is_a_batch_error(self):
        set_faults(FaultRegistry("worker.exec=io"))
        outcomes = BatchScheduler(max_workers=1, serial_threshold=None).run(
            [spec_for(0), spec_for(1)]
        )
        assert [o.status for o in outcomes] == ["error", "error"]
        assert [o.attempts for o in outcomes] == [1, 1]


# -- the circuit breaker ----------------------------------------------------


class TestCircuitBreaker:
    def test_trips_at_threshold_within_window(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=3, window=10.0, cooldown=5.0,
                                 clock=lambda: now[0])
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_old_failures_age_out(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=2, window=5.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 6.0  # past the window
        assert breaker.record_failure() is False
        assert breaker.state == "closed"

    def test_cooldown_then_half_open_then_heal(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, window=10.0, cooldown=2.0,
                                 clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow_respawn(0) is False
        now[0] = 2.5
        assert breaker.poll() == "half_open"
        assert breaker.allow_respawn(0) is True   # exactly one probe
        assert breaker.allow_respawn(1) is False
        assert breaker.record_success() is True   # the probe delivered
        assert breaker.state == "closed"
        assert breaker.heals == 1

    def test_half_open_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 1.5
        breaker.poll()
        assert breaker.record_failure() is True  # the probe died too
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_pool_breaker_trips_and_heals_on_real_deaths(self):
        """Kill the worker repeatedly from outside: the breaker opens
        (no respawn), cools down, probes, and a delivered result heals
        it and restores the fleet."""
        breaker = CircuitBreaker(threshold=2, window=30.0, cooldown=0.2)
        with WorkerPool(1, worker=echo_worker, poll_interval=0.02,
                        restart_backoff=0.01, breaker=breaker) as pool:
            collect(pool, [{"name": "warm"}])
            for _ in range(2):
                pid = pool.health()["workers"][0]["pid"]
                os.kill(pid, signal.SIGKILL)
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    pool.reap()
                    state = pool.health()
                    if breaker.state == "open" or (
                        state["alive"] == 1
                        and state["workers"][0]["pid"] != pid
                    ):
                        break
                    time.sleep(0.02)
            assert breaker.state == "open"
            assert pool.degraded is True
            time.sleep(0.25)  # cooldown
            assert pool.degraded is False  # polled into half_open
            pool.reap()  # forks the probe worker
            (result, _), = collect(pool, [{"name": "probe"}])
            assert result["status"] == "ok"
            snap = breaker.snapshot()
            assert snap["state"] == "closed"
            assert snap["trips"] >= 1 and snap["heals"] >= 1


# -- degraded cache-only mode over HTTP --------------------------------------


class TestDegradedGateway:
    def test_open_breaker_serves_cache_only(self, tmp_path):
        from repro.formats.escher import MAGIC

        cache = ResultCache(tmp_path / "cache")
        cached_spec = spec_for(seed=51)
        cache.put(cached_spec, {"status": "ok", "escher": MAGIC + "\n",
                                "metrics": {}, "timing": {}, "seconds": 0.01})
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        pool = WorkerPool(1, worker=echo_worker, breaker=breaker)
        config = GatewayConfig(workers=1, cache=cache)
        with start_gateway(config, pool=pool) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                # Force the crash-loop verdict deterministically.
                with pool._lock:
                    breaker.record_failure()
                assert pool.degraded is True

                miss = c.post("/v1/jobs", spec_for(seed=52).to_dict())
                assert miss.status == 503
                assert "cache only" in miss.json()["error"]
                assert int(miss.headers["retry-after"]) >= 1

                hit = c.post("/v1/jobs", cached_spec.to_dict())
                assert hit.status == 200
                assert hit.json()["cached"] is True

                health = c.get("/healthz")
                assert health.status == 503
                assert health.json()["status"] == "degraded"
                assert health.json()["pool"]["breaker"]["state"] == "open"

                metrics = c.get("/metrics").body.decode()
                assert 'gateway_breaker_open 1' in metrics
                assert 'gateway_breaker{state="open"} 1' in metrics

                stats = c.get("/v1/stats").json()
                assert stats["breaker"]["state"] == "open"
                assert stats["totals"]["gateway.degraded_rejections"] == 1

                # Heal: the gateway recovers without a restart.
                with pool._lock:
                    breaker.record_success()
                ok = c.post("/v1/jobs", spec_for(seed=53).to_dict())
                assert ok.status == 202
                assert c.get("/healthz").json()["status"] == "ok"


# -- deadline propagation ----------------------------------------------------


class TestDeadlines:
    def test_expired_queued_job_is_cancelled_before_dispatch(self):
        with WorkerPool(1, worker=napping_worker, poll_interval=0.02) as pool:
            results: dict[str, dict] = {}
            done = threading.Event()
            pool.submit({"name": "hog", "nap": 0.6},
                        callback=lambda r, a: results.setdefault("hog", r))

            def on_expired(result, _attempts):
                results["late"] = result
                done.set()

            pool.submit({"name": "late", "nap": 0.0}, callback=on_expired,
                        deadline=time.time() + 0.1)
            assert done.wait(10.0)
            assert results["late"]["status"] == "cancelled"
            assert "deadline" in results["late"]["error"]
            assert pool.health()["deadline_cancelled"] == 1

    def test_worker_budget_is_clamped_to_remaining_deadline(self):
        """No pool timeout, but a 0.5s deadline: the worker's SIGALRM
        budget is the remaining time, so a 30s job dies in well under it."""
        with WorkerPool(1, worker=napping_worker) as pool:
            box: dict[str, dict] = {}
            done = threading.Event()
            started = time.perf_counter()
            pool.submit(
                {"name": "slow", "nap": 30},
                deadline=time.time() + 0.5,
                callback=lambda r, _a: (box.setdefault("r", r), done.set()),
            )
            assert done.wait(15.0)
            assert box["r"]["status"] == "timeout"
            assert time.perf_counter() - started < 10.0

    def test_gateway_deadline_validation(self, tmp_path):
        config = GatewayConfig(workers=1)
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                bad = c.post("/v1/jobs", spec_for(seed=54).to_dict(),
                             headers={"x-deadline-ms": "soon"})
                assert bad.status == 400
                zero = c.post("/v1/jobs", spec_for(seed=54).to_dict(),
                              headers={"x-deadline-ms": "-5"})
                assert zero.status == 400
                posted = c.post("/v1/jobs",
                                {**spec_for(seed=55).to_dict(), "deadline_ms": 60000})
                assert posted.status == 202
                assert posted.json()["deadline"] is not None


# -- journal fault point -----------------------------------------------------


class TestJournalFaults:
    def test_append_io_fault_raises(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync="never")
        set_faults(FaultRegistry("journal.append=io"))
        with pytest.raises(OSError):
            journal.accepted("j000001", "d", {})
        journal.close()

    def test_append_corrupt_fault_leaves_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync="never")
        journal.accepted("j000001", "d1", {})
        set_faults(FaultRegistry("journal.append=corrupt"))
        with pytest.raises(OSError):
            journal.accepted("j000002", "d2", {})
        journal.close()
        set_faults(FaultRegistry(""))
        reopened = JobJournal(path, fsync="never")
        assert reopened.stats.torn_tail is True
        # The torn record is dropped; the intact one survives.
        assert [e.job_id for e in reopened.replay()] == ["j000001"]
        reopened.close()

    def test_gateway_absorbs_journal_failures(self, tmp_path):
        """A dying journal degrades durability, never availability."""
        journal = JobJournal(tmp_path / "j.jsonl", fsync="never")
        config = GatewayConfig(workers=1, journal=journal)
        with start_gateway(config) as served:
            set_faults(FaultRegistry("journal.append=io"))
            with HttpClient("127.0.0.1", served.port) as c:
                posted = c.post("/v1/jobs", spec_for(seed=56).to_dict())
                assert posted.status == 202  # accepted despite the journal
                final = c.get(f"/v1/jobs/{posted.json()['id']}?wait=30").json()
                assert final["status"] == "ok"
                stats = c.get("/v1/stats").json()
                assert stats["totals"]["gateway.journal_errors"] >= 1
                assert stats["faults"]["points"] == {"journal.append": "io:1"}
            set_faults(FaultRegistry(""))
