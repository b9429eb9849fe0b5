"""Self-contained HTML diagnostics report for one recorded run.

Renders a :class:`~repro.obs.runlog.RunRecord` — optionally against a
baseline — into a single HTML file with no external assets: run header,
profile tree, a CPU flamegraph rebuilt from the record's sampling
windows, counter tables with histogram percentiles, a Table-6.1-style
quality row compared to the baseline, the congestion heatmap SVG
rebuilt from the recorded matrix (no plane access, so zero rescans), a
per-net failure drill-down (each failed net linking into the
search-introspection section) and the router's per-net search
telemetry.  Every section degrades to a note when its data wasn't
recorded — a report renders cleanly with tracing and profiling off.
"""

from __future__ import annotations

import html
import re
from pathlib import Path

from .congestion import CongestionMap
from .runlog import RunRecord, diff_records
from .sampler import flamegraph_div, merge_windows

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 72em; color: #222; background: #fdfcf8; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em;
     border-bottom: 1px solid #ddd; padding-bottom: .2em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: right;
         font-variant-numeric: tabular-nums; }
th { background: #f0ede4; } td.key, th.key { text-align: left; }
pre { background: #f6f3ea; padding: .8em; overflow-x: auto; font-size: .85em; }
.better { color: #1a7a36; } .worse { color: #b3232a; font-weight: 600; }
.muted { color: #777; } .svgbox { border: 1px solid #ddd; background: #fff;
  padding: .5em; overflow: auto; max-height: 40em; }
.flame { position: relative; border: 1px solid #ddd; background: #fff;
         font-size: 11px; font-family: ui-monospace, monospace; }
.frame { position: absolute; height: 16px; line-height: 16px;
         overflow: hidden; white-space: nowrap; text-overflow: clip;
         border-radius: 2px; border: 1px solid rgba(255,255,255,.6);
         box-sizing: border-box; padding: 0 2px; cursor: default; }
.frame:hover { border-color: #222; z-index: 2; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _anchor(kind: str, name: object) -> str:
    """A safe, deterministic ``id=`` value for intra-report links."""
    return f"{kind}-" + re.sub(r"[^A-Za-z0-9_.-]", "_", str(name))


def _kv_table(pairs: list[tuple[str, object]]) -> str:
    rows = "\n".join(
        f'<tr><td class="key">{_esc(k)}</td><td>{_esc(v)}</td></tr>'
        for k, v in pairs
    )
    return f"<table>{rows}</table>"


def _header_section(record: RunRecord) -> str:
    env = record.environment or {}
    return _kv_table(
        [
            ("run id", record.run_id),
            ("kind / name", f"{record.kind} / {record.name}"),
            ("timestamp", record.timestamp),
            ("git rev", record.git_rev),
            ("spec digest", record.spec_digest[:16] or "—"),
            ("wall clock", f"{record.wall_seconds:.3f}s"),
            ("python", f"{env.get('python', '?')} ({env.get('implementation', '?')})"),
            ("platform", env.get("platform", "?")),
        ]
    )


def _stages_section(record: RunRecord) -> str:
    if record.profile:
        tree = f"<pre>{_esc(record.profile)}</pre>"
    else:
        tree = '<p class="muted">tracing was off for this run</p>'
    if not record.stages:
        return tree
    ordered = sorted(
        record.stages.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
    )
    rows = "\n".join(
        f'<tr><td class="key">{_esc(name)}</td>'
        f"<td>{agg.get('seconds', 0.0):.4f}</td>"
        f"<td>{agg.get('count', 0)}</td></tr>"
        for name, agg in ordered
    )
    return (
        tree
        + '<table><tr><th class="key">stage</th><th>seconds</th>'
        f"<th>count</th></tr>{rows}</table>"
    )


def _quality_section(record: RunRecord, baseline: RunRecord | None) -> str:
    if baseline is None:
        rows = "\n".join(
            f'<tr><td class="key">{_esc(k)}</td><td>{_esc(v)}</td></tr>'
            for k, v in record.quality_row.items()
        )
        return (
            '<table><tr><th class="key">metric</th><th>run</th></tr>'
            f"{rows}</table>"
            '<p class="muted">no baseline selected — deltas unavailable</p>'
        )
    diff = diff_records(baseline, record)
    rows = []
    for metric, d in diff.items():
        delta = d["delta"]
        # Lower is better for everything here except routed-net count.
        worse = delta > 0 if metric != "routed" else delta < 0
        cls = "muted" if not delta else ("worse" if worse else "better")
        pct = f"{d['pct']:+.1f}%" if d["pct"] is not None else "—"
        rows.append(
            f'<tr><td class="key">{_esc(metric)}</td><td>{d["base"]}</td>'
            f'<td>{d["run"]}</td><td class="{cls}">{delta:+g}</td>'
            f'<td class="{cls}">{pct}</td></tr>'
        )
    return (
        f'<p>baseline: <code>{_esc(baseline.run_id)}</code> '
        f'({_esc(baseline.timestamp)}, {_esc(baseline.git_rev)})</p>'
        '<table><tr><th class="key">metric</th><th>baseline</th><th>run</th>'
        f'<th>Δ</th><th>%</th></tr>{"".join(rows)}</table>'
    )


def _counters_section(record: RunRecord) -> str:
    snap = record.counters or {}
    counters = snap.get("counters", {})
    histograms = snap.get("histograms", {})
    parts = []
    if counters:
        rows = "\n".join(
            f'<tr><td class="key">{_esc(k)}</td><td>{_esc(v)}</td></tr>'
            for k, v in sorted(counters.items())
        )
        parts.append(
            '<table><tr><th class="key">counter</th><th>value</th></tr>'
            f"{rows}</table>"
        )
    if histograms:
        rows = "\n".join(
            f'<tr><td class="key">{_esc(k)}</td><td>{h.get("count", 0)}</td>'
            f'<td>{h.get("mean", 0.0):g}</td><td>{h.get("min", 0.0):g}</td>'
            f'<td>{h.get("p50", 0.0):g}</td><td>{h.get("p95", 0.0):g}</td>'
            f'<td>{h.get("p99", 0.0):g}</td><td>{h.get("max", 0.0):g}</td></tr>'
            for k, h in sorted(histograms.items())
        )
        parts.append(
            '<table><tr><th class="key">histogram</th><th>count</th>'
            "<th>mean</th><th>min</th><th>p50</th><th>p95</th><th>p99</th>"
            f"<th>max</th></tr>{rows}</table>"
        )
    return "".join(parts) or '<p class="muted">no counters recorded</p>'


def _congestion_section(record: RunRecord) -> str:
    if not record.congestion:
        return '<p class="muted">no congestion snapshot in this record</p>'
    cmap = CongestionMap.from_dict(record.congestion)
    hot = cmap.hotspots(8)
    hot_rows = "\n".join(
        f'<tr><td class="key">({x}, {y})</td><td>{occ}</td><td>{cross}</td></tr>'
        for x, y, occ, cross in hot
    )
    return (
        f"<p>occupied points: {len(cmap.cells)} · total occupancy: "
        f"{cmap.occupancy_total} · crossovers: {cmap.crossover_total} · "
        f"peak occupancy: {cmap.max_occupancy}</p>"
        f'<div class="svgbox">{cmap.to_svg()}</div>'
        '<table><tr><th class="key">hotspot</th><th>occupancy</th>'
        f"<th>crossovers</th></tr>{hot_rows}</table>"
    )


def _failures_section(record: RunRecord) -> str:
    if not record.failures:
        return "<p>every net routed — no failures to drill into</p>"
    explainable = set((record.extra or {}).get("search", {}).get("nets", {}))
    run_ref = (
        f'run <code id="{_anchor("run", record.run_id)}">'
        f"{_esc(record.run_id)}</code>"
    )

    def net_cell(net: str) -> str:
        # Net names are user input — escape always, link into the
        # search-introspection section when telemetry exists for them.
        if net in explainable:
            return f'<a href="#{_anchor("net", net)}">{_esc(net)}</a>'
        return _esc(net)

    rows = "\n".join(
        f'<tr><td class="key">{net_cell(net)}</td>'
        f'<td class="key">{_esc(info.get("reason", "?"))}</td>'
        f"<td>{_esc(info.get('unconnected_pins', 0))}</td></tr>"
        for net, info in sorted(record.failures.items())
    )
    hint = (
        f'<p class="muted">{run_ref} — linked nets jump to their search '
        "telemetry; <code>artwork-inspect explain "
        f"{_esc(record.run_id)} &lt;net&gt;</code> prints the same view."
        "</p>"
        if explainable
        else ""
    )
    return (
        '<table><tr><th class="key">net</th><th class="key">reason</th>'
        f"<th>unconnected pins</th></tr>{rows}</table>{hint}"
    )


def _flame_section(record: RunRecord) -> str:
    windows = record.profile_windows or []
    if not windows:
        return (
            '<p class="muted">no sampling-profiler windows in this record '
            "(profiling was off, or the run predates the sampler)</p>"
        )
    merged = merge_windows(windows)
    if not merged.samples:
        return '<p class="muted">profiler ran but captured zero samples</p>'
    top = "\n".join(
        f'<tr><td class="key">{_esc(frame)}</td><td>{count}</td>'
        f"<td>{100.0 * count / merged.samples:.1f}%</td></tr>"
        for frame, count in merged.top_frames(8)
    )
    return (
        f"<p>{merged.samples} samples over {merged.duration:.2f}s at "
        f"{merged.hz:g} hz · sampler overhead "
        f"{100.0 * merged.overhead_ratio:.2f}% · "
        f"{100.0 * merged.attributed_ratio():.1f}% span-attributed</p>"
        + flamegraph_div(merged.stacks)
        + '<table><tr><th class="key">frame</th><th>self samples</th>'
        f"<th>share</th></tr>{top}</table>"
    )


def _search_section(record: RunRecord) -> str:
    search = (record.extra or {}).get("search", {})
    nets = search.get("nets", {})
    if not nets:
        return (
            '<p class="muted">no router search telemetry in this record</p>'
        )
    ordered = sorted(
        nets.items(), key=lambda kv: -kv[1].get("pops", 0)
    )
    rows = "\n".join(
        f'<tr><td class="key" id="{_anchor("net", net)}">{_esc(net)}</td>'
        f"<td>{agg.get('connections', 0)}</td>"
        f"<td>{agg.get('pops', 0)}</td>"
        f"<td>{agg.get('bound_est', 0)}</td>"
        f"<td>{agg.get('escalations', 0)}</td>"
        f"<td>{agg.get('area', 0)}</td>"
        f"<td>{agg.get('seconds', 0.0):.4f}</td>"
        f'<td class="key">{_esc(agg.get("outcome", "routed"))}</td></tr>'
        for net, agg in ordered[:40]
    )
    parts = [
        '<table><tr><th class="key">net</th><th>connections</th>'
        "<th>pops</th><th>bound est.</th><th>escalations</th>"
        "<th>search area</th><th>seconds</th>"
        f'<th class="key">outcome</th></tr>{rows}</table>'
    ]
    if len(ordered) > 40:
        parts.append(
            f'<p class="muted">…{len(ordered) - 40} quieter nets omitted '
            "(full detail in the record)</p>"
        )
    tightness = search.get("bound_tightness", {})
    if tightness:
        trows = "\n".join(
            f'<tr><td class="key">{_esc(bucket)}</td><td>{count}</td></tr>'
            for bucket, count in sorted(tightness.items())
        )
        parts.append(
            "<p>bound tightness (initial heuristic estimate ÷ final cost "
            "per connection — 1.0 means the bound was exact):</p>"
            '<table><tr><th class="key">tightness</th><th>connections</th>'
            f"</tr>{trows}</table>"
        )
    return "".join(parts)


def render_html_report(
    record: RunRecord,
    *,
    baseline: RunRecord | None = None,
    title: str | None = None,
) -> str:
    """The whole report as one self-contained HTML document."""
    title = title or f"artwork run {record.run_id} — {record.name}"
    sections = [
        ("Run", _header_section(record)),
        ("Profile", _stages_section(record)),
        ("Flamegraph", _flame_section(record)),
        ("Quality vs baseline", _quality_section(record, baseline)),
        ("Congestion heatmap", _congestion_section(record)),
        ("Failure drill-down", _failures_section(record)),
        ("Search introspection", _search_section(record)),
        ("Counters", _counters_section(record)),
    ]
    body = "\n".join(
        f"<h2>{_esc(name)}</h2>\n{content}" for name, content in sections
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>\n{body}\n</body></html>"
    )


def write_html_report(
    path: str | Path,
    record: RunRecord,
    *,
    baseline: RunRecord | None = None,
    title: str | None = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_html_report(record, baseline=baseline, title=title))
    return path
