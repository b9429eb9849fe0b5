"""``repro.obs`` — the observability layer.

Tier 1 — live, in-process telemetry every other subsystem records into:

* :mod:`repro.obs.trace` — hierarchical span tracer with Chrome
  trace-event export and a plain-text profile tree;
* :mod:`repro.obs.counters` — process-local counters/histograms (with
  reservoir percentiles) and cross-process snapshot merging;
* :mod:`repro.obs.sampler` — the always-on stack-sampling profiler
  (span-attributed profile windows, cross-process shipping, HTML
  flamegraphs);
* :mod:`repro.obs.logging` — structured ``repro.*`` logger setup.

Tier 2 — durable, comparable run telemetry built on tier 1:

* :mod:`repro.obs.runlog` — the append-only JSONL run registry
  (:class:`RunRecord` / :class:`RunLog`) plus the regression gate;
* :mod:`repro.obs.congestion` — occupancy/crossover heatmaps derived
  from a routed diagram's geometry;
* :mod:`repro.obs.report` — the self-contained HTML diagnostics report.
"""

from .congestion import CongestionMap
from .counters import Registry, get_registry, inc, observe, set_registry
from .logging import add_log_argument, get_logger, setup_logging
from .runlog import (
    Regression,
    RunLog,
    RunRecord,
    check_regressions,
    diff_records,
)
from .report import render_html_report, write_html_report
from .sampler import (
    ProfileWindow,
    Sampler,
    capture,
    ensure_sampler,
    get_sampler,
    label_thread,
    merge_windows,
    render_flamegraph_html,
    set_sampler,
    write_flamegraph_html,
)
from .trace import (
    Span,
    TraceContext,
    Tracer,
    active_span_paths,
    chrome_trace_document,
    chrome_trace_events,
    current_trace_context,
    enable_tracing,
    get_tracer,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_trace_context,
    set_tracer,
    span,
    trace_context_from_headers,
)
from .window import WINDOWS, RollingWindow

__all__ = [
    "CongestionMap",
    "ProfileWindow",
    "Registry",
    "Regression",
    "RollingWindow",
    "RunLog",
    "RunRecord",
    "Sampler",
    "Span",
    "TraceContext",
    "Tracer",
    "WINDOWS",
    "active_span_paths",
    "add_log_argument",
    "capture",
    "check_regressions",
    "chrome_trace_document",
    "chrome_trace_events",
    "current_trace_context",
    "diff_records",
    "enable_tracing",
    "ensure_sampler",
    "get_logger",
    "get_registry",
    "get_sampler",
    "get_tracer",
    "inc",
    "label_thread",
    "merge_windows",
    "new_span_id",
    "new_trace_id",
    "observe",
    "parse_traceparent",
    "render_flamegraph_html",
    "render_html_report",
    "set_registry",
    "set_sampler",
    "set_trace_context",
    "set_tracer",
    "setup_logging",
    "span",
    "trace_context_from_headers",
    "write_flamegraph_html",
    "write_html_report",
]
