"""Self-overhead accounting: measure the profiler with the profiler off.

The paper's Table 1 is a meta-measurement — how much slower and heavier
is a run *under* each tool than native.  ``repro overhead`` reproduces
that discipline for this codebase: it runs one benchmark natively
(``tools=None``) and under a set of analysis tools, records every
observation into a telemetry registry, and renders the slowdown/space
report **from the telemetry data alone** — the renderer only ever sees
a metrics snapshot, so a saved ``telemetry.jsonl`` from another machine
renders identically.

Metric names (all gauges/counters under the ``overhead.`` prefix):

* ``overhead.wall_seconds{tool,repeat}`` — wall time of one run;
* ``overhead.space_bytes{tool}`` — peak analysis (shadow) state;
* ``overhead.blocks{tool}`` — basic blocks executed (work sanity check);
* ``overhead.runs{tool}`` — runs performed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from .spans import Telemetry, current

__all__ = ["DEFAULT_TOOLS", "measure_overhead", "render_overhead_report"]

#: default tool set: the no-analysis floor plus the paper's two profilers
DEFAULT_TOOLS = ("nulgrind", "aprof-rms", "aprof-trms")

NATIVE = "native"


def measure_overhead(
    bench_name: str,
    threads: int = 4,
    scale: float = 1.0,
    tools: Sequence[str] = DEFAULT_TOOLS,
    repeats: int = 3,
    telemetry: Optional[Telemetry] = None,
) -> Telemetry:
    """Run ``bench_name`` native and under ``tools``; return the telemetry.

    Uses the current telemetry when one is live so the observations land
    in the session's event log; otherwise spins up a private metrics-only
    run (overhead accounting must work without ``--telemetry``).
    """
    from ..tools import make_tool
    from ..workloads import benchmark

    tele = telemetry if telemetry is not None else current()
    if not tele.enabled:
        tele = Telemetry()
    bench = benchmark(bench_name)

    bench.run(tools=None, threads=threads, scale=scale)  # warm-up
    with tele.span("overhead.bench", benchmark=bench_name,
                   threads=threads, scale=scale, repeats=repeats):
        # Interleave: each repeat runs native and every tool once, in
        # turn, so a slow stretch of the host (or a warming cache) lands
        # on every configuration alike instead of on whichever ran first.
        for repeat in range(max(1, repeats)):
            for config in (NATIVE, *tools):
                tool = None if config == NATIVE else make_tool(config)
                with tele.span("overhead.run", tool=config, repeat=repeat):
                    started = time.perf_counter()
                    machine = bench.run(tools=tool, threads=threads, scale=scale)
                    wall = time.perf_counter() - started
                tele.gauge("overhead.wall_seconds",
                           tool=config, repeat=repeat).set(round(wall, 6))
                tele.counter("overhead.runs", tool=config).inc()
                blocks_gauge = tele.gauge("overhead.blocks", tool=config)
                blocks_gauge.set(max(blocks_gauge.value,
                                     machine.stats.total_blocks))
                if tool is not None:
                    space = tele.gauge("overhead.space_bytes", tool=config)
                    space.set(max(space.value, tool.space_bytes()))
    return tele


def _by_tool(metrics: List[Dict], name: str) -> Dict[str, List[Dict]]:
    grouped: Dict[str, List[Dict]] = {}
    for entry in metrics:
        if entry.get("name") == name:
            grouped.setdefault(entry["labels"]["tool"], []).append(entry)
    return grouped

def overhead_rows(metrics: List[Dict]) -> List[Tuple]:
    """Table-1-style rows from a metrics snapshot: one per configuration.

    Each row: ``(tool, best_seconds, slowdown_vs_native, space_bytes,
    blocks)``.  Best-of-N wall time, like the paper's methodology, so a
    single noisy repeat cannot manufacture overhead.
    """
    walls = _by_tool(metrics, "overhead.wall_seconds")
    spaces = _by_tool(metrics, "overhead.space_bytes")
    blocks = _by_tool(metrics, "overhead.blocks")
    if NATIVE not in walls:
        return []
    best = {tool: min(entry["value"] for entry in entries)
            for tool, entries in walls.items()}
    native = max(best[NATIVE], 1e-9)
    rows = []
    for tool in sorted(best, key=lambda name: (best[name], name)):
        rows.append((
            tool,
            best[tool],
            best[tool] / native,
            spaces.get(tool, [{"value": 0}])[0]["value"],
            blocks.get(tool, [{"value": 0}])[0]["value"],
        ))
    return rows


def render_overhead_report(metrics: List[Dict], title: str = "") -> str:
    """Render the slowdown/space table from a metrics snapshot alone."""
    from ..reporting.ascii_charts import table

    rows = overhead_rows(metrics)
    if not rows:
        return "no overhead measurements in this telemetry run\n"
    rendered = []
    for tool, seconds, slowdown, space, block_count in rows:
        rendered.append([
            tool,
            f"{seconds * 1000:.1f}ms",
            f"{slowdown:.2f}x",
            f"{space / 1024:.1f} KiB" if space else "-",
            block_count,
        ])
    headers = ["tool", "best wall", "slowdown", "analysis state", "blocks"]
    report = table(headers, rendered,
                   title=title or "self-overhead vs native (best of N)")
    by_name = {row[0]: row for row in rows}
    if "aprof-rms" in by_name and "aprof-trms" in by_name:
        ratio = by_name["aprof-trms"][1] / max(by_name["aprof-rms"][1], 1e-9)
        report += (f"trms over rms: {100 * (ratio - 1):+.0f}% run time "
                   f"(paper, Table 1: +38%)\n")
    return report
