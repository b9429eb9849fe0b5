"""Always-on sampling profiler: where the wall clock actually goes.

A :class:`Sampler` is a daemon thread that walks
``sys._current_frames()`` at a configurable rate (19 hz by default —
deliberately a prime, so the sampling grid never phase-locks to
second-aligned periodic work), collapses each thread's stack into a
``frame;frame;frame`` string and aggregates the counts into a ring of
fixed-duration :class:`ProfileWindow` s.  Thread sampling was chosen
over ``SIGPROF``/``setitimer`` on purpose: the pool workers already own
``SIGALRM`` for job deadlines (:func:`repro.service.scheduler
.run_with_timeout`), signals don't compose, and a Python-level signal
handler could only observe the main thread anyway.

Every sample is *attributed*:

* the ambient :class:`~repro.obs.trace.Tracer` span path of the sampled
  thread (via :func:`~repro.obs.trace.active_span_paths`) — or the
  thread's registered :func:`label_thread` label when no span is open —
  becomes the root of the collapsed stack, so cost rolls up per stage;
* the process's ambient :class:`~repro.obs.trace.TraceContext` tags the
  sample with the live request id, so cost rolls up per request too.

Windows serialize to plain dicts (:meth:`ProfileWindow.to_dict`) and
ship across process boundaries alongside the existing counter/trace
payloads; :func:`merge_windows` folds windows from many workers into
one.  :func:`render_flamegraph_html` turns windows into a
self-contained HTML flamegraph (pure CSS, no external assets — same
spirit as :mod:`repro.obs.report`).

Profiling must never break the pipeline: every tick runs under a
``sampler.tick`` failpoint and a catch-all — a failing tick is counted
(``sampler.errors``) and the loop keeps going.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from html import escape as _esc
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from ..faults import fault
from . import counters
from .trace import active_span_paths, current_trace_context

#: Always-on default rate.  19 hz costs well under 1% of one core and
#: resolves anything that takes longer than ~50 ms per window.
DEFAULT_HZ = 19.0
#: On-demand (``POST /v1/profile``) capture rate.
CAPTURE_HZ = 97.0
#: Seconds each ring window covers.
DEFAULT_WINDOW_S = 5.0
#: Ring depth: 12 × 5 s = one trailing minute of profile.
DEFAULT_MAX_WINDOWS = 12
#: Stack depth bound per sample (keeps pathological recursion cheap).
MAX_STACK_DEPTH = 64
#: Distinct collapsed stacks kept per window; the rarest stacks beyond
#: this are folded into ``(truncated)`` so a window's size is bounded.
MAX_STACKS_PER_WINDOW = 512

#: Separator inside a collapsed stack (Brendan Gregg's format).
STACK_SEP = ";"
#: Separator inside a span path ("gateway.request>worker.exec").
SPAN_SEP = ">"

_UNATTRIBUTED = ""

# -- thread labels ---------------------------------------------------------
#
# Long-lived threads with no live span (the gateway's asyncio loop, a
# worker waiting on its inbox) register a label so their samples still
# attribute to a named root instead of an anonymous thread id.

_THREAD_LABELS: dict[int, str] = {}


def label_thread(label: str, thread_id: int | None = None) -> None:
    """Attribute ``thread_id``'s (default: the calling thread's) samples
    to ``label`` whenever no tracer span is open on it."""
    tid = threading.get_ident() if thread_id is None else thread_id
    _THREAD_LABELS[tid] = label


def unlabel_thread(thread_id: int | None = None) -> None:
    _THREAD_LABELS.pop(
        threading.get_ident() if thread_id is None else thread_id, None
    )


# -- stack collapsing ------------------------------------------------------


def frame_name(frame: Any) -> str:
    """``module.qualname`` for one frame (stdlib-only, 3.10-safe)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__") if frame.f_globals else None
    if not module:
        module = Path(code.co_filename).stem or "?"
    func = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}.{func}"


def collapse_frame(frame: Any, limit: int = MAX_STACK_DEPTH) -> list[str]:
    """The frame's stack as names, outermost first, depth-bounded."""
    names: list[str] = []
    while frame is not None and len(names) < limit:
        names.append(frame_name(frame))
        frame = frame.f_back
    names.reverse()
    return names


def _without_gc(call: Callable[[], Any]) -> Any:
    """``call()`` with the cycle collector held off.  ``sys._current_frames``
    holds the interpreter's thread-list lock while it allocates; a
    collection there can run a finalizer that gives up the GIL, and a
    thread that then takes the GIL and waits for that lock (starting a
    thread does) deadlocks the process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return call()
    finally:
        if enabled:
            gc.enable()


# -- profile windows -------------------------------------------------------


@dataclass
class ProfileWindow:
    """One fixed-duration bucket of aggregated stack samples."""

    #: Monotonic open/close stamps (sampler clock).
    start: float = 0.0
    end: float = 0.0
    #: Wall-clock (epoch) open/close stamps — what lets a slow request's
    #: time range find the window that overlapped it.
    started_at: float = 0.0
    ended_at: float = 0.0
    hz: float = DEFAULT_HZ
    #: Sampler iterations that fed this window.
    ticks: int = 0
    #: Thread-stack samples aggregated (≥ ticks when threads > 1).
    samples: int = 0
    #: ``"root;frame;...;frame" -> count`` collapsed stacks.  The root
    #: element is the span path / thread label the sample attributed to.
    stacks: dict[str, int] = field(default_factory=dict)
    #: ``"span>path" -> count`` — per-stage attribution ("" = none).
    spans: dict[str, int] = field(default_factory=dict)
    #: ``trace_id -> count`` — per-request attribution.
    requests: dict[str, int] = field(default_factory=dict)
    #: Seconds the sampler itself spent collecting into this window.
    self_s: float = 0.0
    #: Ticks that raised (failpoint or real) and were absorbed.
    errors: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def overhead_ratio(self) -> float:
        """Sampler self-time as a fraction of the window's wall clock."""
        wall = self.duration
        return self.self_s / wall if wall > 0 else 0.0

    def add(
        self,
        parts: Iterable[str],
        *,
        span_path: str = _UNATTRIBUTED,
        request_id: str | None = None,
        count: int = 1,
    ) -> None:
        """Aggregate one collapsed sample (root included in ``parts``)."""
        key = STACK_SEP.join(parts)
        self.samples += count
        self.stacks[key] = self.stacks.get(key, 0) + count
        self.spans[span_path] = self.spans.get(span_path, 0) + count
        if request_id:
            self.requests[request_id] = self.requests.get(request_id, 0) + count

    def seal(self, *, end: float, ended_at: float) -> "ProfileWindow":
        self.end = end
        self.ended_at = ended_at
        if len(self.stacks) > MAX_STACKS_PER_WINDOW:
            keep = sorted(self.stacks.items(), key=lambda kv: -kv[1])
            folded = sum(c for _, c in keep[MAX_STACKS_PER_WINDOW:])
            self.stacks = dict(keep[:MAX_STACKS_PER_WINDOW])
            if folded:
                self.stacks["(truncated)"] = (
                    self.stacks.get("(truncated)", 0) + folded
                )
        return self

    def self_counts(self) -> dict[str, int]:
        """Per-frame *self* samples (the leaf of every stack)."""
        out: dict[str, int] = {}
        for key, count in self.stacks.items():
            leaf = key.rsplit(STACK_SEP, 1)[-1]
            out[leaf] = out.get(leaf, 0) + count
        return out

    def top_frames(self, n: int = 5) -> list[tuple[str, int]]:
        """The ``n`` frames with the most self-time, hottest first."""
        ranked = sorted(self.self_counts().items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def attributed_ratio(self) -> float:
        """Fraction of samples rooted in a named span / thread label."""
        if not self.samples:
            return 0.0
        return 1.0 - self.spans.get(_UNATTRIBUTED, 0) / self.samples

    def to_dict(self) -> dict:
        return {
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "started_at": round(self.started_at, 6),
            "ended_at": round(self.ended_at, 6),
            "hz": self.hz,
            "ticks": self.ticks,
            "samples": self.samples,
            "stacks": dict(self.stacks),
            "spans": dict(self.spans),
            "requests": dict(self.requests),
            "self_s": round(self.self_s, 6),
            "errors": self.errors,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProfileWindow":
        return cls(
            start=float(data.get("start", 0.0)),
            end=float(data.get("end", 0.0)),
            started_at=float(data.get("started_at", 0.0)),
            ended_at=float(data.get("ended_at", 0.0)),
            hz=float(data.get("hz", DEFAULT_HZ)),
            ticks=int(data.get("ticks", 0)),
            samples=int(data.get("samples", 0)),
            stacks={str(k): int(v) for k, v in dict(data.get("stacks", {})).items()},
            spans={str(k): int(v) for k, v in dict(data.get("spans", {})).items()},
            requests={
                str(k): int(v) for k, v in dict(data.get("requests", {})).items()
            },
            self_s=float(data.get("self_s", 0.0)),
            errors=int(data.get("errors", 0)),
        )


def merge_windows(windows: Iterable[ProfileWindow | Mapping]) -> ProfileWindow:
    """Fold any number of windows (objects or shipped dicts, possibly
    from different processes) into one aggregate window."""
    merged = ProfileWindow(start=float("inf"), started_at=float("inf"))
    seen = False
    for w in windows:
        if not isinstance(w, ProfileWindow):
            w = ProfileWindow.from_dict(w)
        seen = True
        merged.hz = w.hz
        merged.start = min(merged.start, w.start)
        merged.end = max(merged.end, w.end)
        merged.started_at = min(merged.started_at, w.started_at)
        merged.ended_at = max(merged.ended_at, w.ended_at)
        merged.ticks += w.ticks
        merged.samples += w.samples
        merged.self_s += w.self_s
        merged.errors += w.errors
        for k, v in w.stacks.items():
            merged.stacks[k] = merged.stacks.get(k, 0) + v
        for k, v in w.spans.items():
            merged.spans[k] = merged.spans.get(k, 0) + v
        for k, v in w.requests.items():
            merged.requests[k] = merged.requests.get(k, 0) + v
    if not seen:
        return ProfileWindow()
    return merged


# -- the sampler -----------------------------------------------------------


class Sampler:
    """Background stack sampler with an injectable frame source + clock.

    ``frame_source`` defaults to ``sys._current_frames``; tests inject a
    callable returning ``{thread id: frame-like}`` and drive :meth:`tick`
    directly for fully deterministic aggregation.
    """

    def __init__(
        self,
        *,
        hz: float = DEFAULT_HZ,
        window_s: float = DEFAULT_WINDOW_S,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        frame_source: Callable[[], Mapping[int, Any]] | None = None,
        span_source: Callable[[], Mapping[int, tuple[str, ...]]] | None = None,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        if window_s <= 0 or max_windows < 1:
            raise ValueError("window_s must be positive, max_windows >= 1")
        self.hz = float(hz)
        self.window_s = float(window_s)
        self.clock = clock
        self.wall_clock = wall_clock
        self._frame_source = frame_source or sys._current_frames
        self._span_source = span_source or active_span_paths
        self._ring: deque[ProfileWindow] = deque(maxlen=max_windows)
        self._current: ProfileWindow | None = None
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: Threads never sampled: the sampler's own, plus any the caller
        #: excludes (e.g. the thread blocking on an on-demand capture).
        self.excluded: set[int] = set()
        self.ticks = 0
        self.errors = 0

    # -- window bookkeeping (callers hold self._lock) ------------------

    def _window(self, now: float) -> ProfileWindow:
        current = self._current
        if current is not None and now - current.start >= self.window_s:
            self._ring.append(
                current.seal(end=now, ended_at=self.wall_clock())
            )
            current = None
        if current is None:
            current = self._current = ProfileWindow(
                start=now,
                end=now,
                started_at=self.wall_clock(),
                ended_at=self.wall_clock(),
                hz=self.hz,
            )
        return current

    # -- sampling ------------------------------------------------------

    def tick(self) -> int:
        """One sampling pass over every live thread; returns the number
        of stack samples aggregated.  Never raises: failures (including
        the ``sampler.tick`` failpoint) are counted and swallowed."""
        t0 = self.clock()
        added = 0
        try:
            fault("sampler.tick")
            frames = _without_gc(self._frame_source)
            span_paths = self._span_source()
            ctx = current_trace_context()
            request_id = ctx.trace_id if ctx is not None else None
            with self._lock:
                window = self._window(t0)
                window.ticks += 1
                self.ticks += 1
                for tid, frame in frames.items():
                    if tid in self.excluded:
                        continue
                    path = span_paths.get(tid, ())
                    root = SPAN_SEP.join(path) if path else (
                        _THREAD_LABELS.get(tid, _UNATTRIBUTED)
                    )
                    parts = list(path) if path else (
                        [root] if root else []
                    )
                    parts.extend(collapse_frame(frame))
                    if not parts:
                        continue
                    window.add(parts, span_path=root, request_id=request_id)
                    added += 1
                window.end = max(window.end, self.clock())
                window.ended_at = self.wall_clock()
                window.self_s += self.clock() - t0
        except Exception:
            self.errors += 1
            counters.inc("sampler.errors")
            with self._lock:
                if self._current is not None:
                    self._current.errors += 1
                    self._current.self_s += self.clock() - t0
        return added

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Sampler":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        self.excluded.add(threading.get_ident())
        interval = 1.0 / self.hz
        while not self._stop.is_set():
            started = self.clock()
            self.tick()
            elapsed = self.clock() - started
            self._stop.wait(max(0.0, interval - elapsed))

    def stop(self, *, timeout: float = 2.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self._thread = None

    # -- reading -------------------------------------------------------

    def windows(self, *, include_current: bool = True) -> list[ProfileWindow]:
        """Sealed windows oldest-first (plus a sealed *copy* of the
        in-progress window, so readers always see a closed interval)."""
        with self._lock:
            out = list(self._ring)
            current = self._current
            if include_current and current is not None and current.samples:
                snap = ProfileWindow.from_dict(current.to_dict())
                snap.seal(end=self.clock(), ended_at=self.wall_clock())
                out.append(snap)
        return out

    def last_window(self) -> ProfileWindow | None:
        windows = self.windows()
        return windows[-1] if windows else None

    def export(self, *, since: float | None = None) -> list[dict]:
        """Windows as shippable dicts; ``since`` (epoch seconds) keeps
        only windows that ended at or after it."""
        return [
            w.to_dict()
            for w in self.windows()
            if since is None or w.ended_at >= since
        ]

    def windows_overlapping(self, t0: float, t1: float) -> list[ProfileWindow]:
        """Windows whose wall-clock span intersects ``[t0, t1]`` (epoch)."""
        return [
            w
            for w in self.windows()
            if w.started_at <= t1 and w.ended_at >= t0
        ]

    def snapshot(self, *, top: int = 5) -> dict:
        """The JSON block ``/v1/stats`` serves."""
        last = self.last_window()
        merged = merge_windows(self.windows())
        out = {
            "running": self.running,
            "hz": self.hz,
            "window_s": self.window_s,
            "windows": len(self.windows(include_current=False)),
            "ticks": self.ticks,
            "errors": self.errors,
            "overhead_ratio": round(merged.overhead_ratio, 6),
            "attributed_ratio": round(merged.attributed_ratio(), 4),
        }
        if last is not None:
            out["last_window"] = {
                "samples": last.samples,
                "duration_s": round(last.duration, 3),
                "top_frames": [list(kv) for kv in last.top_frames(top)],
                "spans": dict(
                    sorted(last.spans.items(), key=lambda kv: -kv[1])[:top]
                ),
            }
        return out


def capture(
    seconds: float,
    *,
    hz: float = CAPTURE_HZ,
    frame_source: Callable[[], Mapping[int, Any]] | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> ProfileWindow:
    """Blocking on-demand high-hz capture: sample for ``seconds`` and
    return the merged window.  The calling thread is excluded (it would
    only ever show this function)."""
    sampler = Sampler(
        hz=hz,
        window_s=max(seconds, 0.001),
        max_windows=max(2, int(seconds) + 1),
        clock=clock,
        frame_source=frame_source,
    )
    sampler.excluded.add(threading.get_ident())
    # Don't sample the always-on sampler either: its wait loop is pure
    # unattributed noise in a high-hz capture.
    always_on = get_sampler()
    if always_on is not None and always_on._thread is not None:
        ident = always_on._thread.ident
        if ident is not None:
            sampler.excluded.add(ident)
    deadline = clock() + seconds
    interval = 1.0 / hz
    while clock() < deadline:
        started = clock()
        sampler.tick()
        sleep(max(0.0, min(interval - (clock() - started), deadline - clock())))
    return merge_windows(sampler.windows())


# -- the process-global always-on sampler ----------------------------------

_SAMPLER: Sampler | None = None
_SAMPLER_LOCK = threading.Lock()

#: Environment override for the always-on rate; ``0`` disables.
ENV_HZ = "ARTWORK_SAMPLER_HZ"


def get_sampler() -> Sampler | None:
    return _SAMPLER


def set_sampler(sampler: Sampler | None) -> Sampler | None:
    """Swap the global sampler (tests); returns the previous one."""
    global _SAMPLER
    with _SAMPLER_LOCK:
        previous, _SAMPLER = _SAMPLER, sampler
    return previous


def sampler_running() -> bool:
    """Is the process's always-on sampler running?  A caller that starts
    it with :func:`ensure_sampler` when it was not stops it again when
    done, so no sampler thread outlives an inline job or an embedded
    gateway."""
    return _SAMPLER is not None and _SAMPLER.running


def ensure_sampler(*, hz: float | None = None, **kwargs: Any) -> Sampler | None:
    """Start (or return) the process's always-on sampler.

    ``hz`` defaults to :data:`DEFAULT_HZ`, overridable via
    ``ARTWORK_SAMPLER_HZ``; a non-positive rate disables profiling and
    returns ``None``.
    """
    global _SAMPLER
    if hz is None:
        import os

        raw = os.environ.get(ENV_HZ, "")
        try:
            hz = float(raw) if raw else DEFAULT_HZ
        except ValueError:
            hz = DEFAULT_HZ
    if hz <= 0:
        return None
    with _SAMPLER_LOCK:
        if _SAMPLER is None:
            _SAMPLER = Sampler(hz=hz, **kwargs)
        if not _SAMPLER.running:
            _SAMPLER.start()
        return _SAMPLER


# -- flamegraph rendering --------------------------------------------------

_FLAME_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 72em; color: #222; background: #fdfcf8; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em;
     border-bottom: 1px solid #ddd; padding-bottom: .2em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: right;
         font-variant-numeric: tabular-nums; }
th { background: #f0ede4; } td.key, th.key { text-align: left; }
.muted { color: #777; }
.flame { position: relative; border: 1px solid #ddd; background: #fff;
         font-size: 11px; font-family: ui-monospace, monospace; }
.frame { position: absolute; height: 16px; line-height: 16px;
         overflow: hidden; white-space: nowrap; text-overflow: clip;
         border-radius: 2px; border: 1px solid rgba(255,255,255,.6);
         box-sizing: border-box; padding: 0 2px; cursor: default; }
.frame:hover { border-color: #222; z-index: 2; }
"""

#: Warm flame palette, deterministic per frame name.
_FLAME_COLORS = (
    "#e4572e", "#e98a2b", "#edab32", "#f0c541", "#d9822b",
    "#e06b3c", "#ec9d46", "#f2b347", "#de7547", "#e89a55",
)


def _flame_color(name: str) -> str:
    # Not ``hash()``: per-process salting would recolor frames run to run.
    return _FLAME_COLORS[sum(name.encode()) % len(_FLAME_COLORS)]


def _flame_tree(stacks: Mapping[str, int]) -> dict:
    """Collapsed stacks to a nested ``{name, value, children}`` tree."""
    root: dict = {"name": "all", "value": 0, "children": {}}
    for key, count in stacks.items():
        root["value"] += count
        node = root
        for part in key.split(STACK_SEP):
            children = node["children"]
            child = children.get(part)
            if child is None:
                child = children[part] = {
                    "name": part, "value": 0, "children": {},
                }
            child["value"] += count
            node = child
    return root


def _flame_divs(
    node: dict, left: float, width: float, depth: int, total: int,
    out: list[str], max_depth: list[int],
) -> None:
    if depth > max_depth[0]:
        max_depth[0] = depth
    if width < 0.05:  # invisible at any sane viewport; stop recursing
        return
    pct = 100.0 * node["value"] / total if total else 0.0
    title = f"{node['name']} — {node['value']} samples ({pct:.1f}%)"
    out.append(
        f'<div class="frame" title="{_esc(title)}" style="left:{left:.3f}%;'
        f"width:{width:.3f}%;top:{depth * 17}px;"
        f'background:{_flame_color(node["name"])}">'
        f"{_esc(node['name'])}</div>"
    )
    child_left = left
    for name in sorted(node["children"]):
        child = node["children"][name]
        child_width = width * child["value"] / node["value"]
        _flame_divs(child, child_left, child_width, depth + 1, total, out, max_depth)
        child_left += child_width


def flamegraph_div(stacks: Mapping[str, int]) -> str:
    """The flamegraph itself as one embeddable ``<div>`` (no page chrome),
    icicle orientation: roots on top, leaves growing downward."""
    tree = _flame_tree(stacks)
    if not tree["value"]:
        return '<p class="muted">no samples in the profile window</p>'
    out: list[str] = []
    max_depth = [0]
    _flame_divs(tree, 0.0, 100.0, 0, tree["value"], out, max_depth)
    height = (max_depth[0] + 1) * 17 + 2
    return (
        f'<div class="flame" style="height:{height}px">' + "".join(out) + "</div>"
    )


def render_flamegraph_html(
    windows: Iterable[ProfileWindow | Mapping],
    *,
    title: str = "artwork profile",
) -> str:
    """A self-contained flamegraph page for any set of profile windows."""
    merged = merge_windows(windows)
    span_rows = "\n".join(
        f'<tr><td class="key">{_esc(name or "(unattributed)")}</td>'
        f"<td>{count}</td>"
        f"<td>{100.0 * count / merged.samples:.1f}%</td></tr>"
        for name, count in sorted(merged.spans.items(), key=lambda kv: -kv[1])
    ) if merged.samples else ""
    frame_rows = "\n".join(
        f'<tr><td class="key">{_esc(name)}</td><td>{count}</td>'
        f"<td>{100.0 * count / merged.samples:.1f}%</td></tr>"
        for name, count in merged.top_frames(10)
    ) if merged.samples else ""
    summary = (
        f"<p>{merged.samples} samples · {merged.ticks} ticks at "
        f"{merged.hz:g} hz · {merged.duration:.2f}s of wall clock · "
        f"sampler overhead {100.0 * merged.overhead_ratio:.2f}% · "
        f"{100.0 * merged.attributed_ratio():.1f}% of samples attributed "
        "to named spans</p>"
    )
    body = [
        summary,
        "<h2>Flamegraph</h2>",
        flamegraph_div(merged.stacks),
    ]
    if span_rows:
        body += [
            "<h2>Span attribution</h2>",
            '<table><tr><th class="key">span path</th><th>samples</th>'
            f"<th>share</th></tr>{span_rows}</table>",
        ]
    if frame_rows:
        body += [
            "<h2>Top self-time frames</h2>",
            '<table><tr><th class="key">frame</th><th>self samples</th>'
            f"<th>share</th></tr>{frame_rows}</table>",
        ]
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_FLAME_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>\n" + "\n".join(body) + "\n</body></html>"
    )


def write_flamegraph_html(
    path: str | Path,
    windows: Iterable[ProfileWindow | Mapping],
    *,
    title: str = "artwork profile",
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_flamegraph_html(windows, title=title))
    return path
