"""Tests for the gateway's write-ahead job journal: durability format,
torn-tail tolerance, compaction, boot-time replay, and the full
kill-the-daemon-and-restart recovery path."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.gateway import GatewayConfig, HttpClient, JobJournal, start_gateway
from repro.gateway.journal import read_journal
from repro.service import JobSpec, ResultCache
from repro.workloads import random_network


def spec_for(seed: int = 0, *, modules: int = 5) -> JobSpec:
    return JobSpec.from_network(random_network(modules=modules, seed=seed))


def _alive(pid: int) -> bool:
    """Is ``pid`` a running process (zombies awaiting a reaper count as
    gone)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# -- JobJournal unit --------------------------------------------------------


class TestJobJournal:
    def test_accept_dispatch_done_lifecycle(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted("j000001", "d1", {"name": "a"}, name="a",
                             trace_id="t1", deadline=123.5)
            journal.accepted("j000002", "d2", {"name": "b"}, name="b")
            journal.dispatched("j000001")
            journal.done("j000002", "ok")
        reopened = JobJournal(path, fsync="never")
        entries = reopened.replay()
        assert [e.job_id for e in entries] == ["j000001"]
        entry = entries[0]
        assert entry.digest == "d1"
        assert entry.payload == {"name": "a"}
        assert entry.trace_id == "t1"
        assert entry.deadline == 123.5
        assert entry.state == "dispatched"
        reopened.close()

    def test_done_without_accept_is_ignored(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync="never")
        journal.done("j000009", "ok")  # no-op, no record written
        assert journal.stats.appended == 0
        journal.close()

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted("j000001", "d1", {})
            journal.accepted("j000002", "d2", {})
        with open(path, "ab") as fh:
            fh.write(b'{"op": "done", "job": "j0000')  # power cut mid-append
        reopened = JobJournal(path, fsync="never")
        assert reopened.stats.torn_tail is True
        assert reopened.stats.corrupt_lines == 0
        assert {e.job_id for e in reopened.replay()} == {"j000001", "j000002"}
        reopened.close()

    def test_interior_corruption_is_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted("j000001", "d1", {})
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"garbage not json\n" + lines[0] + b"\n")
        reopened = JobJournal(path, fsync="never")
        assert reopened.stats.corrupt_lines == 1
        assert [e.job_id for e in reopened.replay()] == ["j000001"]
        reopened.close()

    def test_compact_keeps_only_live_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync="never")
        for i in range(1, 6):
            journal.accepted(f"j{i:06d}", f"d{i}", {"i": i})
        for i in range(1, 5):
            journal.done(f"j{i:06d}", "ok")
        assert journal.compact() == 1
        journal.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["job"] for r in records] == ["j000005"]
        assert [r["op"] for r in records] == ["accepted"]

    def test_compact_preserves_dispatched_marker(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync="never")
        journal.accepted("j000001", "d1", {})
        journal.dispatched("j000001")
        journal.compact()
        journal.close()
        reopened = JobJournal(path, fsync="never")
        assert reopened.replay()[0].state == "dispatched"
        reopened.close()

    def test_auto_compaction_after_threshold_completions(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, fsync="never", compact_threshold=3)
        for i in range(1, 5):
            journal.accepted(f"j{i:06d}", f"d{i}", {})
            journal.done(f"j{i:06d}", "ok")
        assert journal.stats.compactions >= 1
        journal.close()
        # The compaction at the threshold purged everything terminal at
        # that point; only later records remain.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["job"] for r in records} == {"j000004"}

    def test_max_job_seq(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync="never")
        assert journal.max_job_seq() == 0
        journal.accepted("j000007", "d", {})
        journal.accepted("j000042", "d2", {})
        assert journal.max_job_seq() == 42
        journal.close()

    def test_fsync_policies(self, tmp_path):
        for policy in ("always", "interval", "never"):
            journal = JobJournal(tmp_path / f"{policy}.jsonl", fsync=policy)
            journal.accepted("j000001", "d", {})
            journal.close()
        with pytest.raises(ValueError):
            JobJournal(tmp_path / "bad.jsonl", fsync="sometimes")
        always = JobJournal(tmp_path / "always.jsonl", fsync="always")
        assert always.stats.appended == 0  # fresh handle, load-only
        always.accepted("j000002", "d", {})
        assert always.stats.fsyncs == 1
        always.close()

    def test_read_journal_summary(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted("j000001", "d1", {}, name="one")
            journal.accepted("j000002", "d2", {}, name="two")
            journal.dispatched("j000002")
            journal.done("j000001", "ok")
        records, summary = read_journal(path)
        assert summary["jobs"] == 2
        assert summary["live"] == 1
        assert summary["live_jobs"] == {"j000002": "dispatched"}
        assert summary["statuses"] == {"j000001": "ok"}
        assert summary["corrupt_lines"] == 0 and summary["torn_tail"] is False
        assert len(records) == 4


# -- boot-time replay through the gateway -----------------------------------


class TestGatewayReplay:
    def test_queued_job_survives_restart(self, tmp_path):
        spec = spec_for(seed=21)
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted(
                "j000031", spec.digest, spec.to_dict(),
                name=spec.name, trace_id="cafe" * 8,
            )
        config = GatewayConfig(
            workers=1,
            cache=ResultCache(tmp_path / "cache"),
            journal=JobJournal(path, fsync="never"),
        )
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                final = c.get("/v1/jobs/j000031?wait=30").json()
                assert final["status"] == "ok"
                assert final["replayed"] is True
                assert final["trace_id"] == "cafe" * 8
                # Fresh ids allocate above the replayed sequence.
                fresh = c.post("/v1/jobs", spec_for(seed=22).to_dict()).json()
                assert int(fresh["id"][1:]) > 31
                stats = c.get("/v1/stats").json()
                assert stats["totals"]["gateway.journal_replayed"] == 1
                assert stats["journal"]["path"] == str(path)
        # The job reached a terminal state: nothing left to replay.
        _, summary = read_journal(path)
        assert summary["live"] == 0

    def test_finished_before_crash_served_from_cache(self, tmp_path):
        """A job whose result landed in the cache before the crash is
        replayed as a cache hit — executed exactly once overall."""
        spec = spec_for(seed=23)
        cache = ResultCache(tmp_path / "cache")
        from repro.formats.escher import MAGIC

        cache.put(spec, {"status": "ok", "escher": MAGIC + "\n", "metrics": {},
                         "timing": {}, "seconds": 0.01})
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted("j000005", spec.digest, spec.to_dict(), name=spec.name)
        config = GatewayConfig(
            workers=1, cache=cache, journal=JobJournal(path, fsync="never")
        )
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                final = c.get("/v1/jobs/j000005?wait=10").json()
                assert final["status"] == "ok"
                assert final["cached"] is True
                assert final["replayed"] is True

    def test_unreplayable_entry_is_retired(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, fsync="never") as journal:
            journal.accepted("j000001", "bogus", {"not": "a spec"})
        config = GatewayConfig(workers=1, journal=JobJournal(path, fsync="never"))
        with start_gateway(config) as served:
            with HttpClient("127.0.0.1", served.port) as c:
                assert c.get("/v1/jobs/j000001").status == 404
        _, summary = read_journal(path)
        assert summary["live"] == 0  # journaled done("error"), then compacted


# -- the restart-recovery satellite: SIGKILL a real daemon mid-job ----------


class TestRestartRecovery:
    def _spawn_daemon(self, args: list[str], env: dict) -> tuple[subprocess.Popen, int]:
        code = (
            "import sys; from repro.cli import artwork_serve_main; "
            f"sys.exit(artwork_serve_main({args!r}))"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        banner = proc.stdout.readline()
        assert "listening" in banner, banner + proc.stdout.read()
        port = int(banner.rsplit(":", 1)[1].split()[0])
        return proc, port

    def test_sigkill_mid_job_then_restart_completes_same_job(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        runlog = tmp_path / "runlog.jsonl"
        base = [
            "--port", "0", "--workers", "1",
            "--journal", str(journal),
            "--cache", str(tmp_path / "cache"),
            "--runlog", str(runlog),
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("ARTWORK_FAULTS", None)
        spec = spec_for(seed=31)

        # Daemon #1: every worker execution stalls 30s (injected), so the
        # accepted job is guaranteed to be in flight when SIGKILL lands.
        stalled_env = {**env, "ARTWORK_FAULTS": "worker.exec=sleep:1:30"}
        proc, port = self._spawn_daemon(base, stalled_env)
        try:
            with HttpClient("127.0.0.1", port) as c:
                posted = c.post("/v1/jobs", spec.to_dict())
                assert posted.status == 202, posted.body
                job_id = posted.json()["id"]
                workers = [w["pid"] for w in c.get("/healthz").json()["pool"]["workers"]]
            time.sleep(0.3)  # let the pool dispatch into the stall
            proc.send_signal(signal.SIGKILL)
            # Don't communicate(): the orphaned worker child still holds
            # the stdout pipe (it is mid-stall), so EOF would take 30s.
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

        # The orphaned worker follows its dead parent, stall or not.
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if _alive(pid)]

        # The accepted record survived the kill.
        _, summary = read_journal(journal)
        assert job_id in summary["live_jobs"]

        # Daemon #2: same journal, no faults — replay finishes the job
        # under its original id.
        proc, port = self._spawn_daemon(base, env)
        try:
            with HttpClient("127.0.0.1", port) as c:
                final = c.get(f"/v1/jobs/{job_id}?wait=60").json()
                assert final["status"] == "ok", final
                assert final["id"] == job_id
                assert final["replayed"] is True
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # Exactly one runlog record: the job executed once overall.
        records = [json.loads(line) for line in runlog.read_text().splitlines()]
        serve = [r for r in records if r["kind"] == "serve"]
        assert [r["extra"]["job_id"] for r in serve] == [job_id]
        _, summary = read_journal(journal)
        assert summary["live"] == 0
