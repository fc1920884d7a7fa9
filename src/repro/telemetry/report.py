"""The ``repro stats`` reporting surface.

Reads run manifests (:mod:`repro.telemetry.manifest`) and JSONL span event
logs (:mod:`repro.telemetry.tracer`) and renders:

* a **per-experiment table** -- runs, points, cache hit rate, failed and
  retried points, p50/p95 executed point latency, peak worker RSS;
* a **fault summary line** -- aggregate retries / timeouts / crashes /
  quarantines and cache corruptions across the manifests (only rendered
  when any are nonzero, so healthy runs stay clean);
* a **phase table** -- per span name: calls, cumulative and self time,
  sorted by cumulative self time (the "slowest phases" view);
* a **domain counters table** -- every ``count()`` counter summed across
  the event log (cache hits, memo evictions, sampled pairs, ...), only
  rendered when any counters were recorded;
* a **coverage line** -- how much of the executed wall time the root spans
  account for (instrumentation that loses time shows up here first);
* an optional **text flame view** (``--flame``) of one point's span tree:
  the slowest root span, each child drawn as an indented bar scaled to the
  root's duration, with domain counters inline.

Everything is plain text and computes from on-disk artifacts only, so the
command works on artifacts downloaded from CI just as well as on a local
``~/.cache/jellyfish-repro/runs``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.manifest import RunRecord
from repro.telemetry.tracer import summarize_events
from repro.utils.stats import percentile

#: Width of the bar column in the flame rendering.
FLAME_BAR_WIDTH = 30


def load_events(path: Path) -> List[dict]:
    """Parse a JSONL span log, skipping unparseable lines (partial writes)."""
    events: List[dict] = []
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "name" in record and "dur_s" in record:
                    events.append(record)
    except OSError:
        return []
    return events


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def experiment_rows(records: Sequence[RunRecord]) -> List[dict]:
    """Aggregate manifests per sweep id (one output row per experiment)."""
    grouped: Dict[str, List[RunRecord]] = defaultdict(list)
    for record in records:
        grouped[record.sweep_id].append(record)
    rows = []
    for sweep_id in sorted(grouped):
        runs = grouped[sweep_id]
        executed: List[float] = []
        cached = 0
        total_points = 0
        peak_rss = 0
        failed = 0
        retries = 0
        degraded = 0
        for run in runs:
            executed.extend(run.executed_durations())
            cached += run.cached_count()
            total_points += len(run.points)
            peak_rss = max(peak_rss, run.max_peak_rss_kb())
            failed += run.failed_count()
            retries += run.retry_count()
            degraded += run.degraded_count()
        rows.append(
            {
                "experiment": sweep_id,
                "runs": len(runs),
                "points": total_points,
                "cached": cached,
                "hit_rate": (cached / total_points) if total_points else float("nan"),
                "failed": failed,
                "retries": retries,
                "degraded": degraded,
                "p50_s": percentile(executed, 50.0) if executed else float("nan"),
                "p95_s": percentile(executed, 95.0) if executed else float("nan"),
                "peak_rss_kb": peak_rss,
            }
        )
    return rows


def fault_summary(records: Sequence[RunRecord]) -> Dict[str, int]:
    """Aggregate fault counters across manifests (all zero when healthy).

    Sums each run's ``failures`` dict (retries, timeouts, crashes, ooms,
    signals, errors, degraded, quarantined, journal_skips), adds cache
    ``corruptions`` from the cache stats snapshots, and counts interrupted
    runs.
    """
    totals: Dict[str, int] = {
        "retries": 0,
        "timeouts": 0,
        "crashes": 0,
        "ooms": 0,
        "signals": 0,
        "errors": 0,
        "degraded": 0,
        "quarantined": 0,
        "journal_skips": 0,
        "cache_corruptions": 0,
        "interrupted_runs": 0,
    }
    for record in records:
        for key, value in (record.failures or {}).items():
            if key in totals:
                totals[key] += int(value)
        totals["cache_corruptions"] += int((record.cache or {}).get("corruptions", 0))
        if record.interrupted:
            totals["interrupted_runs"] += 1
    return totals


def render_fault_summary(totals: Dict[str, int]) -> str:
    parts = [
        f"{totals['retries']} retries",
        f"{totals['timeouts']} timeouts",
        f"{totals['crashes']} crashes",
        f"{totals['ooms']} ooms",
        f"{totals['signals']} signals",
        f"{totals['errors']} errors",
        f"{totals['degraded']} degraded",
        f"{totals['quarantined']} quarantined",
        f"{totals['journal_skips']} journal skips",
        f"{totals['cache_corruptions']} cache corruptions",
    ]
    if totals.get("interrupted_runs"):
        parts.append(f"{totals['interrupted_runs']} interrupted runs")
    return "faults: " + ", ".join(parts)


def phase_rows(events: Sequence[dict], limit: int = 0) -> List[dict]:
    """Per-phase aggregate rows sorted by cumulative self time, descending."""
    totals = summarize_events(events)
    rows = [
        {
            "phase": name,
            "calls": int(entry["calls"]),
            "cum_s": entry["cum_s"],
            "self_s": entry["self_s"],
        }
        for name, entry in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self_s"], row["phase"]))
    return rows[:limit] if limit else rows


def counter_rows(events: Sequence[dict]) -> List[dict]:
    """Aggregate domain counters across all spans, sorted by name.

    Spans accumulate counters via :func:`repro.telemetry.count` (cache
    hits, memo evictions, sampled pairs, ...); this sums each counter over
    the whole event log so ``repro stats`` surfaces e.g. how many distance
    rows or path tables a sweep evicted without reading flame views.
    """
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for event in events:
        for key, value in (event.get("counters") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] += value
                calls[key] += 1
    return [
        {"counter": name, "total": totals[name], "spans": calls[name]}
        for name in sorted(totals)
    ]


def render_counter_table(rows: List[dict]) -> str:
    lines = [f"{'counter':<28} {'total':>14} {'spans':>8}"]
    for row in rows:
        total = row["total"]
        rendered = f"{total:.4g}" if total != int(total) else f"{int(total)}"
        lines.append(f"{row['counter']:<28} {rendered:>14} {row['spans']:>8}")
    return "\n".join(lines)


def span_coverage(
    records: Sequence[RunRecord], events: Sequence[dict]
) -> Optional[Tuple[float, float, float]]:
    """``(root_span_seconds, executed_seconds, fraction)`` or ``None``.

    Root spans (depth 0) are the outermost instrumented units -- the
    engine wraps every executed point in one -- so their cumulative time
    over the executed wall time from the manifests measures how much of
    the run the instrumentation actually saw.
    """
    executed = sum(d for record in records for d in record.executed_durations())
    if executed <= 0.0 or not events:
        return None
    root_seconds = sum(e["dur_s"] for e in events if e.get("depth", 0) == 0)
    return root_seconds, executed, root_seconds / executed


def _format_seconds(seconds: float) -> str:
    if seconds != seconds:  # NaN
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_experiment_table(rows: List[dict]) -> str:
    lines = [
        f"{'experiment':<16} {'runs':>5} {'points':>7} {'cached':>7} "
        f"{'hit rate':>9} {'fail':>5} {'retry':>6} {'deg':>5} {'p50':>9} "
        f"{'p95':>9} {'peak rss':>10}"
    ]
    for row in rows:
        hit = "-" if row["hit_rate"] != row["hit_rate"] else f"{row['hit_rate']:.0%}"
        rss = f"{row['peak_rss_kb'] / 1024:.0f} MB" if row["peak_rss_kb"] else "-"
        lines.append(
            f"{row['experiment']:<16} {row['runs']:>5} {row['points']:>7} "
            f"{row['cached']:>7} {hit:>9} {row.get('failed', 0):>5} "
            f"{row.get('retries', 0):>6} {row.get('degraded', 0):>5} "
            f"{_format_seconds(row['p50_s']):>9} "
            f"{_format_seconds(row['p95_s']):>9} {rss:>10}"
        )
    return "\n".join(lines)


def render_phase_table(rows: List[dict]) -> str:
    lines = [f"{'phase':<28} {'calls':>8} {'cum':>10} {'self':>10}"]
    for row in rows:
        lines.append(
            f"{row['phase']:<28} {row['calls']:>8} "
            f"{_format_seconds(row['cum_s']):>10} "
            f"{_format_seconds(row['self_s']):>10}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Flame view
# --------------------------------------------------------------------------- #
def _children_index(events: Sequence[dict]) -> Dict[Tuple[int, int], List[dict]]:
    """Map ``(pid, parent span index)`` to children in start order."""
    children: Dict[Tuple[int, int], List[dict]] = defaultdict(list)
    for event in events:
        parent = event.get("parent")
        if parent is not None:
            children[(event.get("pid", 0), parent)].append(event)
    for bucket in children.values():
        bucket.sort(key=lambda e: e.get("t", 0.0))
    return children


def select_flame_root(events: Sequence[dict], name: str = "") -> Optional[dict]:
    """Slowest root span, optionally restricted to spans named ``name``."""
    roots = [
        e
        for e in events
        if e.get("depth", 0) == 0 and (not name or e["name"] == name)
    ]
    if not roots and name:  # fall back to any span with that name
        roots = [e for e in events if e["name"] == name]
    if not roots:
        return None
    return max(roots, key=lambda e: e["dur_s"])


def _counters_inline(event: dict) -> str:
    counters = event.get("counters") or {}
    if not counters:
        return ""
    parts = []
    for key in sorted(counters):
        value = counters[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def render_flame(events: Sequence[dict], name: str = "") -> str:
    """Text flame view of one span tree (the slowest matching root)."""
    root = select_flame_root(events, name)
    if root is None:
        target = f" named {name!r}" if name else ""
        return f"no spans{target} in the event log"
    children = _children_index(events)
    total = root["dur_s"] or 1e-12
    lines = [
        f"flame: {root['name']} ({_format_seconds(root['dur_s'])}, "
        f"pid {root.get('pid', '?')})"
    ]

    def emit(event: dict, indent: int) -> None:
        share = max(min(event["dur_s"] / total, 1.0), 0.0)
        bar = "#" * max(int(round(share * FLAME_BAR_WIDTH)), 1)
        lines.append(
            f"{'  ' * indent}{bar:<{FLAME_BAR_WIDTH}} "
            f"{_format_seconds(event['dur_s']):>9}  {event['name']}"
            f"{_counters_inline(event)}"
        )
        for child in children.get((event.get("pid", 0), event["i"]), []):
            emit(child, indent + 1)

    emit(root, 0)
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Top-level rendering
# --------------------------------------------------------------------------- #
def render_stats(
    records: Sequence[RunRecord],
    events: Sequence[dict] = (),
    flame: Optional[str] = None,
    limit: int = 15,
) -> str:
    """The full ``repro stats`` output for the given artifacts."""
    sections: List[str] = []
    if records:
        sections.append(
            f"run manifests: {len(records)}\n" + render_experiment_table(
                experiment_rows(records)
            )
        )
        faults = fault_summary(records)
        if any(faults.values()):
            sections.append(render_fault_summary(faults))
    else:
        sections.append("run manifests: none found")
    if events:
        sections.append(
            f"span events: {len(events)}\n" + render_phase_table(
                phase_rows(events, limit=limit)
            )
        )
        counters = counter_rows(events)
        if counters:
            sections.append(
                "domain counters:\n" + render_counter_table(counters)
            )
        coverage = span_coverage(records, events)
        if coverage is not None:
            root_s, executed_s, fraction = coverage
            sections.append(
                f"span coverage: {_format_seconds(root_s)} of "
                f"{_format_seconds(executed_s)} executed wall time "
                f"({fraction:.0%})"
            )
    if flame is not None:
        sections.append(render_flame(events, flame))
    return "\n\n".join(sections)
