"""Tests for the batch job service: specs, cache, scheduler, CLI."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import artwork_batch_main, artwork_main
from repro.core.netlist import Network, Pin, TermType
from repro.place.pablo import PabloOptions
from repro.route.eureka import RouterOptions
from repro.service import (
    BatchScheduler,
    JobError,
    JobSpec,
    ResultCache,
    execute_job,
    network_from_dict,
    network_to_dict,
)
from repro.service.cache import RESULT_KEYS
from repro.workloads import batch_networks, random_network
from repro.workloads.stdlib import instantiate


def specs_for(count: int, *, modules: int = 5, seed: int = 0) -> list[JobSpec]:
    return [
        JobSpec.from_network(random_network(modules=modules, seed=seed + i))
        for i in range(count)
    ]


# -- module-level workers (must be picklable for the process pool) --------


def slow_worker(payload: dict) -> dict:
    time.sleep(30)
    return {"status": "ok", "metrics": {}, "timing": {}}  # pragma: no cover


def flaky_crash_worker(payload: dict) -> dict:
    """Dies hard on first sight of a job; succeeds once the marker exists."""
    marker = os.path.join(os.environ["REPRO_TEST_DIR"], payload["name"])
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(13)
    return execute_job(payload)


def always_crash_worker(payload: dict) -> dict:
    os._exit(13)  # pragma: no cover


class TestJobSpec:
    def test_digest_ignores_construction_order(self):
        def build(order):
            net = Network(name="n")
            for name in order:
                net.add_module(instantiate("and2", name))
            net.add_system_terminal("ext", TermType.IN)
            net.connect("n1", ("a", "y"), ("b", "a"))
            net.connect("n2", Pin(None, "ext"), ("a", "a"), ("b", "b"))
            return net

        one = JobSpec.from_network(build(["a", "b"]))
        other = JobSpec.from_network(build(["b", "a"]))
        assert one.digest == other.digest
        assert one == other and hash(one) == hash(other)

    def test_digest_sensitive_to_content_and_options(self):
        base = random_network(modules=5, seed=1)
        spec = JobSpec.from_network(base)
        assert spec.digest != JobSpec.from_network(random_network(modules=5, seed=2)).digest
        assert (
            spec.digest
            != JobSpec.from_network(base, PabloOptions(partition_size=4)).digest
        )
        assert (
            spec.digest
            != JobSpec.from_network(base, eureka=RouterOptions(claimpoints=False)).digest
        )

    def test_default_digest_is_stable(self):
        # Computed before the bidirectional engine was removed: specs and
        # journal entries still carry ``"bidirectional": false``, and their
        # digests (cache keys, journal ids) must not move.
        spec = JobSpec.from_network(random_network(modules=5, seed=1))
        digest = "520b7babcf5a8ba53e7c0cf81c8ae60f12c539e4c5a6cf95c1513a34d2bb89ea"
        assert spec.digest == digest
        assert spec.to_dict()["eureka"]["bidirectional"] is False
        assert JobSpec.from_dict(spec.to_dict()).digest == digest

    def test_retired_bidirectional_option(self):
        data = JobSpec.from_network(random_network(modules=4, seed=2)).to_dict()
        data["eureka"]["bidirectional"] = True
        with pytest.raises(JobError, match="bidirectional"):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("engine", "intervals", "engine intervals is no longer supported"),
            ("engine", "reference", "engine reference is no longer supported"),
            ("engine", "bogus", "unknown eureka engine 'bogus'"),
            ("net_order", "nope", "unknown eureka net_order 'nope'"),
        ],
        ids=["engine-intervals", "engine-reference", "engine-bogus", "net_order-nope"],
    )
    def test_unimplemented_router_value_rejected(self, option, value, message):
        # Accepted, such a value would run the default path under a
        # digest (and cache entry) of its own.
        data = JobSpec.from_network(random_network(modules=4, seed=2)).to_dict()
        data["eureka"][option] = value
        with pytest.raises(JobError, match=message):
            JobSpec.from_dict(data)

    def test_retired_parallel_nets_option(self):
        # The option never changed a job's output, so specs and journal
        # entries carrying either value keep the digest that
        # test_default_digest_is_stable pins.
        spec = JobSpec.from_network(random_network(modules=5, seed=1))
        assert "parallel_nets" not in spec.to_dict()["eureka"]
        for value in (True, False):
            data = spec.to_dict()
            data["eureka"]["parallel_nets"] = value
            assert JobSpec.from_dict(data).digest == spec.digest

    def test_retired_parallel_nets_flag(self, tmp_path, capsys):
        from repro.formats.netlist_files import save_network_files
        from repro.workloads.examples import example1_string

        paths = save_network_files(example1_string(), tmp_path)
        args = [str(paths[k]) for k in ("netlist", "call", "io")]
        with pytest.raises(SystemExit) as exc:
            artwork_main(args + ["--parallel-nets", "-o", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert "--parallel-nets" in capsys.readouterr().err

    def test_name_does_not_enter_digest(self):
        net = random_network(modules=4, seed=3)
        assert (
            JobSpec.from_network(net, name="a").digest
            == JobSpec.from_network(net, name="b").digest
        )

    def test_dict_round_trip(self):
        spec = JobSpec.from_network(
            random_network(modules=5, seed=4),
            PabloOptions(partition_size=3, box_size=2),
            RouterOptions(claimpoints=False, margin=6),
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec and again.digest == spec.digest

    def test_network_round_trip_preserves_content(self):
        net = random_network(modules=7, seed=5)
        rebuilt = network_from_dict(network_to_dict(net))
        rebuilt.validate()
        assert rebuilt.stats == net.stats
        assert network_to_dict(rebuilt) == network_to_dict(net)

    def test_rejects_unknown_options(self):
        with pytest.raises(JobError):
            JobSpec.from_dict(
                {
                    "network": network_to_dict(random_network(modules=4, seed=0)),
                    "pablo": {"bogus": 1},
                }
            )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = specs_for(1)[0]
        assert cache.get(spec) is None
        payload = execute_job(spec.to_dict())
        cache.put(spec, payload)
        hit = cache.get(spec)
        assert hit is not None
        assert hit["escher"] == payload["escher"]
        assert hit["metrics"] == payload["metrics"]
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_corrupt_diagram_recovers_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = specs_for(1)[0]
        cache.put(spec, execute_job(spec.to_dict()))
        entry = cache.entry_dir(spec.digest)
        (entry / "diagram.es").write_text("garbage, not escher")
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1 and cache.stats.evictions == 1
        assert spec not in cache  # evicted, a rerun can repopulate

    def test_corrupt_sidecar_recovers_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = specs_for(1)[0]
        cache.put(spec, execute_job(spec.to_dict()))
        (cache.entry_dir(spec.digest) / "result.json").write_text("{not json")
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1

    def test_older_sidecar_reads_back_as_results_only(self, tmp_path):
        # Sidecars written before the allowlist kept telemetry and the
        # digest, indented; a hit returns only the result keys.
        cache = ResultCache(tmp_path)
        spec = specs_for(1)[0]
        payload = execute_job(spec.to_dict())
        entry = cache.entry_dir(spec.digest)
        entry.mkdir(parents=True)
        (entry / "diagram.es").write_text(payload["escher"])
        sidecar = {k: v for k, v in payload.items() if k != "escher"}
        sidecar["digest"] = spec.digest
        assert {"search", "congestion", "counters"} <= set(sidecar)
        (entry / "result.json").write_text(json.dumps(sidecar, indent=1))
        hit = cache.get(spec)
        assert hit is not None
        assert set(hit) == {*RESULT_KEYS, "escher"} - {"error"}
        assert hit["escher"] == payload["escher"]
        assert hit["failure_reasons"] == payload["failure_reasons"]
        # A new store writes the same keys, compactly.
        cache.put(spec, payload)
        text = (entry / "result.json").read_text()
        assert "\n" not in text and set(json.loads(text)) == set(hit) - {"escher"}

    def test_lru_eviction_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        specs = specs_for(3)
        payload = {"status": "ok", "escher": "#TUE-ES-871\n", "metrics": {}, "timing": {}}
        for age, spec in enumerate(specs):
            entry = cache.put(spec, payload)
            os.utime(entry, times=(age, age))  # unambiguous LRU order
            if age < 2:  # the third put trims before we can re-stamp
                assert len(cache) == age + 1
        assert len(cache) == 2
        assert specs[0] not in cache  # oldest evicted
        assert cache.stats.evictions == 1


class TestScheduler:
    def test_serial_and_parallel_agree(self, tmp_path):
        specs = specs_for(4)
        serial = BatchScheduler(max_workers=1).run(specs)
        fanned = BatchScheduler(max_workers=4).run(specs)
        assert [o.spec.name for o in serial] == [s.name for s in specs]
        assert all(o.ok for o in serial + fanned)
        assert [o.payload["escher"] for o in serial] == [
            o.payload["escher"] for o in fanned
        ]

    def test_warm_cache_and_progress_stream(self, tmp_path):
        specs = specs_for(3)
        cache = ResultCache(tmp_path)
        events: list[tuple[str, int, int]] = []
        sched = BatchScheduler(max_workers=2, cache=cache)
        sched.run(specs, progress=lambda o, d, t: events.append((o.status, d, t)))
        assert [e[1:] for e in sorted(events)] == [(1, 3), (2, 3), (3, 3)]
        warm = sched.run(specs)
        assert all(o.from_cache and o.ok for o in warm)
        assert cache.stats.hits == 3
        assert "total_seconds" in warm[0].timing  # sidecar keeps the timing row

    def test_load_diagram_round_trips(self):
        outcome = BatchScheduler(max_workers=1).run(specs_for(1))[0]
        diagram = outcome.load_diagram()
        assert len(diagram.placements) == outcome.timing["modules"]

    def test_bad_network_is_an_error_not_a_crash(self):
        spec = specs_for(1)[0]
        dangling = network_to_dict(random_network(modules=4, seed=0))
        dangling["nets"][0]["pins"] = dangling["nets"][0]["pins"][:1]
        broken = JobSpec(name="broken", network_json=json.dumps(dangling))
        outcomes = BatchScheduler(max_workers=2).run([spec, broken])
        assert outcomes[0].ok
        assert outcomes[1].status == "error"
        assert "NetlistError" in outcomes[1].error

    def test_per_job_timeout(self):
        sched = BatchScheduler(max_workers=1, timeout=0.2, worker=slow_worker)
        outcome = sched.run(specs_for(1))[0]
        assert outcome.status == "timeout"
        assert "0.2" in outcome.error

    def test_crash_retried_once_then_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIR", str(tmp_path))
        sched = BatchScheduler(max_workers=1, worker=flaky_crash_worker)
        outcome = sched.run(specs_for(1))[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_persistent_crash_reported(self):
        sched = BatchScheduler(max_workers=1, worker=always_crash_worker)
        outcome = sched.run(specs_for(1))[0]
        assert outcome.status == "crashed"
        assert outcome.attempts == 2

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            BatchScheduler(max_workers=0)


class TestBatchWorkloads:
    def test_random_batch_is_seeded_and_distinct(self):
        nets = batch_networks(kind="random", count=3, modules=5, seed=7)
        again = batch_networks(kind="random", count=3, modules=5, seed=7)
        assert [n.name for n in nets] == [n.name for n in again]
        assert len({n.name for n in nets}) == 3
        for net in nets:
            net.validate()

    def test_datapath_and_examples_kinds(self):
        assert len(batch_networks(kind="datapath", count=4)) == 4
        assert len(batch_networks(kind="examples", count=3)) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            batch_networks(kind="quantum")


class TestArtworkBatchCli:
    def manifest(self, tmp_path, count=4) -> str:
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {"workload": {"kind": "random", "count": count, "modules": 5, "seed": 20}}
            )
        )
        return str(path)

    def test_batch_run_outputs_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = artwork_batch_main(
            [
                self.manifest(tmp_path),
                "-o",
                str(tmp_path / "out"),
                "--workers",
                "2",
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        for seed in range(20, 24):
            assert (tmp_path / "out" / f"random_{seed}.es").exists()
            assert (tmp_path / "out" / f"random_{seed}.svg").exists()
        data = json.loads(report.read_text())
        assert data["summary"]["ok"] == 4
        assert {row["status"] for row in data["jobs"]} == {"ok"}
        out = capsys.readouterr().out
        assert "batch report" in out and "total_s" in out

    def test_workers_do_not_change_diagrams(self, tmp_path):
        manifest = self.manifest(tmp_path)
        one, four = tmp_path / "w1", tmp_path / "w4"
        assert artwork_batch_main([manifest, "-o", str(one), "--workers", "1", "-q"]) == 0
        assert artwork_batch_main([manifest, "-o", str(four), "--workers", "4", "-q"]) == 0
        for es in sorted(one.glob("*.es")):
            assert es.read_text() == (four / es.name).read_text()

    def test_warm_cache_second_run(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path)
        out = tmp_path / "out"
        artwork_batch_main([manifest, "-o", str(out), "-q"])
        capsys.readouterr()
        assert artwork_batch_main([manifest, "-o", str(out), "-q"]) == 0
        assert "cache: 4/4 hits (100%)" in capsys.readouterr().out

    def test_file_jobs_manifest(self, tmp_path):
        from repro.formats.netlist_files import save_network_files
        from repro.workloads.examples import example1_string

        paths = save_network_files(example1_string(), tmp_path)
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "name": "ex1",
                            "netlist": paths["netlist"].name,
                            "call": paths["call"].name,
                            "io": paths["io"].name,
                            "pablo": {"partition_size": 7, "box_size": 7},
                        }
                    ]
                }
            )
        )
        rc = artwork_batch_main([str(manifest), "-o", str(tmp_path / "out"), "-q"])
        assert rc == 0
        assert (tmp_path / "out" / "ex1.svg").exists()

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert artwork_batch_main([str(bad), "-o", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err
        assert artwork_batch_main([str(tmp_path / "missing.json")]) == 2
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert artwork_batch_main([str(empty)]) == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"workload": {"kind": "quantum", "count": 2}}')
        assert artwork_batch_main([str(unknown)]) == 2

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            artwork_batch_main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


def fast_stub_worker(payload: dict) -> dict:
    return {"status": "ok", "name": payload.get("name", "?"),
            "metrics": {}, "timing": {}, "seconds": 0.0}


class TestSerialFastPath:
    def test_engages_for_tiny_jobs(self):
        sched = BatchScheduler(max_workers=4, serial_threshold=10.0)
        outcomes = sched.run(specs_for(3))
        assert all(o.ok for o in outcomes)
        assert sched.counters.snapshot()["counters"]["service.serial_fast_path"] == 1
        assert all(o.attempts == 1 for o in outcomes)

    def test_matches_pool_results(self):
        specs = specs_for(3, seed=20)
        serial = BatchScheduler(max_workers=2, serial_threshold=10.0).run(specs)
        fanned = BatchScheduler(max_workers=2, serial_threshold=None).run(specs)
        assert [o.payload["escher"] for o in serial] == [
            o.payload["escher"] for o in fanned
        ]

    def test_never_engages_for_custom_workers(self):
        # Substituted workers may crash on purpose; they must stay in
        # child processes even when jobs are fast.
        sched = BatchScheduler(
            max_workers=1, worker=fast_stub_worker, serial_threshold=10.0
        )
        outcomes = sched.run(specs_for(2))
        assert all(o.ok for o in outcomes)
        counters = sched.counters.snapshot()["counters"]
        assert "service.serial_fast_path" not in counters

    def test_slow_probe_falls_back_to_pool(self):
        # An impossible threshold: the probe runs in-parent, the rest fan out.
        sched = BatchScheduler(max_workers=2, serial_threshold=1e-9)
        outcomes = sched.run(specs_for(3, seed=30))
        assert all(o.ok for o in outcomes)
        counters = sched.counters.snapshot()["counters"]
        assert "service.serial_fast_path" not in counters
        assert counters["service.jobs"] == 3


class TestPoolBackedScheduler:
    def test_runs_on_borrowed_warm_pool(self):
        from repro.gateway import WorkerPool

        specs = specs_for(3, seed=40)
        with WorkerPool(2) as pool:
            sched = BatchScheduler(max_workers=2, pool=pool)
            first = sched.run(specs)
            pids = {w["pid"] for w in pool.health()["workers"]}
            second = sched.run(specs_for(2, seed=50))
            assert {w["pid"] for w in pool.health()["workers"]} == pids
        assert all(o.ok for o in first + second)
        assert [o.spec.name for o in first] == [s.name for s in specs]
        assert pool.health()["completed"] == 5

    def test_borrowed_pool_results_match_own_pool_results(self, tmp_path):
        from repro.gateway import WorkerPool

        specs = specs_for(2, seed=60)
        plain = BatchScheduler(max_workers=1, serial_threshold=None).run(specs)
        with WorkerPool(1) as pool:
            pooled = BatchScheduler(max_workers=1, pool=pool).run(specs)
        assert [o.payload["escher"] for o in plain] == [
            o.payload["escher"] for o in pooled
        ]

    def test_pool_scheduler_uses_cache(self, tmp_path):
        from repro.gateway import WorkerPool

        cache = ResultCache(tmp_path / "cache")
        specs = specs_for(2, seed=70)
        with WorkerPool(1) as pool:
            sched = BatchScheduler(max_workers=1, pool=pool, cache=cache)
            first = sched.run(specs)
            second = sched.run(specs)
        assert all(not o.from_cache for o in first)
        assert all(o.from_cache for o in second)


class TestBatchCliWarm:
    def _manifest(self, tmp_path, name, seed):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"workload": {"kind": "random", "count": 2, "modules": 5, "seed": seed}}
        ))
        return path

    def test_multi_manifest_keep_warm(self, tmp_path, capsys):
        m1 = self._manifest(tmp_path, "m1", 80)
        m2 = self._manifest(tmp_path, "m2", 90)
        rc = artwork_batch_main(
            [str(m1), str(m2), "-o", str(tmp_path / "out"),
             "--keep-warm", "--workers", "2", "--no-svg", "-q"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "4/4 jobs ok" in out
        assert (tmp_path / "out" / "random_80.es").exists()
        assert (tmp_path / "out" / "random_90.es").exists()

    def test_serial_threshold_flag(self, tmp_path, capsys):
        m1 = self._manifest(tmp_path, "m", 100)
        rc = artwork_batch_main(
            [str(m1), "-o", str(tmp_path / "out"), "--no-svg", "-q",
             "--serial-threshold", "10"]
        )
        assert rc == 0
        assert "2/2 jobs ok" in capsys.readouterr().out
