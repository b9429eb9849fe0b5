"""Shared plumbing for the perfbench workloads.

Paths, the hygiene every workload process gets, process accounting read
from ``/proc`` (CPU, peak RSS, process groups), fresh-start timing for
``setup_s``, the noise diagnostics, and the small statistics helpers.

Everything the benchmark writes lives under :data:`WORK`, a directory
inside the checkout that ``.gitignore`` names, so runs never touch
tracked files (the tracked ``__pycache__/*.pyc`` files included: every
process compiles into :data:`PYCACHE` instead).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PYCACHE = WORK / "pycache"
#: Every job's defining counts, per version of program and benchmark
#: (see ``record_counts``).
COUNTS_DIR = WORK / "counts"

NPROC = os.cpu_count() or 1
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(**extra: str) -> dict[str, str]:
    """Environment for every process the benchmark starts: no
    ``ARTWORK_*`` knobs (fault injection, sampler rate, tokens), the
    checkout's sources first on the path, bytecode kept in
    :data:`PYCACHE`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARTWORK_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(extra)
    return env


def scrub_own_env() -> None:
    """Apply :func:`child_env` to this process before ``repro`` loads."""
    for key in [k for k in os.environ if k.startswith("ARTWORK_")]:
        del os.environ[key]
    PYCACHE.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(prefix: str) -> Path:
    """A fresh directory for one run's caches, journals and outputs."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK / "tmp"))


# -- /proc accounting -----------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (field 3 first)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def proc_cpu_s(pid: int) -> float:
    """User+system CPU of a live process and its reaped children."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of proc(5).
    return sum(int(v) for v in fields[11:15]) / CLK_TCK


def proc_alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        # state is field 3, pgrp field 5.
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def _ancestors() -> set[int]:
    pids, pid = set(), os.getpid()
    while pid > 1:
        pids.add(pid)
        fields = _stat_fields(pid)
        if fields is None:
            break
        pid = int(fields[1])  # ppid is field 4
    return pids


#: Benchmark scripts; any process running one of them here belongs to a run.
SCRIPTS = ("run.py", "probe.py", "serve_launcher.py")


def _runs_benchmark_script(argv: list[str]) -> bool:
    script = next((arg for arg in argv[1:] if not arg.startswith("-")), "")
    path = Path(script)
    return path.name in SCRIPTS and path.parent.name == BENCH.name


def stale_processes() -> list[int]:
    """Live processes of an earlier run of this checkout: anything but
    this process and its ancestors that runs a benchmark script here
    (a harness and its pool workers, daemons and their workers, probes)."""
    skip = _ancestors()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in skip:
            continue
        try:
            cwd = os.readlink(entry / "cwd")
            argv = (entry / "cmdline").read_bytes().decode(errors="replace").split("\0")
        except OSError:
            continue
        if cwd == str(ROOT) and _runs_benchmark_script(argv) and proc_alive(int(entry.name)):
            found.append(int(entry.name))
    return found


def kill_group(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """SIGKILL a child started with ``start_new_session=True`` together
    with everything it forked, and wait until every one has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while group_members(proc.pid):
        if time.monotonic() > deadline:
            raise BenchError(f"processes of group {proc.pid} outlived SIGKILL")
        time.sleep(0.05)


def os_cpu_s() -> float:
    """User+system CPU of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# -- setup_s ---------------------------------------------------------------


def time_fresh_starts(argv: list[str], starts: int) -> list[float]:
    """Launch ``argv`` ``starts + 1`` times and time each from launch to
    its ``ready`` line; the first (untimed) start warms the bytecode
    cache and the OS page cache."""
    times = []
    for i in range(starts + 1):
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"fresh start {argv[1:]} failed (exit {code})")
        if i:
            times.append(elapsed)
    return times


# -- noise diagnostics ---------------------------------------------------


def cpu_probe_s() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - started


def steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class NoiseWatch:
    """``env.*`` diagnostics around one run: steal share of the machine's
    CPU time and the speed probe before and after."""

    def __init__(self) -> None:
        self.probe_before = cpu_probe_s()
        self.steal0 = steal_ticks()
        self.t0 = time.perf_counter()

    def finish(self) -> dict[str, float]:
        wall = time.perf_counter() - self.t0
        steal = steal_ticks() - self.steal0
        after = cpu_probe_s()
        return {
            "env.steal_frac": steal / (CLK_TCK * wall * NPROC) if wall else 0.0,
            "env.cpu_probe_s": (self.probe_before + after) / 2,
            "env.cpu_probe_before_s": self.probe_before,
            "env.cpu_probe_after_s": after,
        }


# -- statistics ----------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float | None:
    """Nearest-rank 90th percentile; ``None`` below 100 samples, where
    fewer than ten samples would lie beyond it."""
    values = sorted(values)
    if len(values) < 100:
        return None
    return values[math.ceil(0.9 * len(values)) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quality(rows: list[dict]) -> dict[str, float]:
    """Table 6.1 quality over metric rows (``DiagramMetrics.as_row()``
    shape), per routed net."""
    routed = sum(row["routed"] for row in rows)
    return {
        "nets_routed_frac": ratio(routed, sum(row["nets"] for row in rows)),
        "bends_per_net": ratio(sum(row["bends"] for row in rows), routed),
        "crossovers_per_net": ratio(sum(row["crossovers"] for row in rows), routed),
        "length_per_net": ratio(sum(row["length"] for row in rows), routed),
    }


# -- defining counts -----------------------------------------------------


def _sources_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record_counts(workload: str, counts: dict[str, dict[str, int]]) -> list[str]:
    """Compare each job's defining counts with every earlier run of the
    same program and benchmark sources, and remember new ones; returns
    the mismatches.

    Keys are job identities (fixed jobs share a key across seeds, seeded
    jobs carry the seed in their name), so a count that drifts between
    runs of the same code fails the run that sees it drift."""
    path = COUNTS_DIR / f"{_sources_fingerprint()}.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    table = known.setdefault(workload, {})
    problems = []
    for job, values in counts.items():
        earlier = table.get(job)
        if earlier is None:
            table[job] = values
        elif earlier != values:
            problems.append(f"{workload}/{job}: counts {values} != earlier run {earlier}")
    COUNTS_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    os.replace(tmp, path)
    return problems
