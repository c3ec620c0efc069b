"""aprof-style text reports from profile databases.

The original aprof writes one report file per profiling session; tools
downstream plot from it.  This module renders the equivalent from a
:class:`~repro.core.profile_data.ProfileDatabase`: a per-routine summary
(calls, distinct input sizes, cost envelope, induced-input split) and a
machine-readable dump of every plot point.
"""

from __future__ import annotations

from typing import List, TextIO

from ..core.metrics import induced_split
from ..core.profile_data import ProfileDatabase, RoutineProfile
from .ascii_charts import table

__all__ = [
    "routine_summary",
    "render_report",
    "dump_points",
    "parse_points",
    "render_analysis_stats",
]


def routine_summary(profile: RoutineProfile) -> List:
    """One summary row for a routine profile."""
    worst = max((stats.cost_max for stats in profile.points.values()), default=0)
    induced = profile.induced_sum
    induced_pct = 100.0 * induced / profile.size_sum if profile.size_sum else 0.0
    return [
        profile.routine,
        profile.thread if profile.thread >= 0 else "all",
        profile.calls,
        profile.distinct_sizes,
        profile.size_sum,
        worst,
        f"{induced_pct:.1f}%",
    ]


def render_report(db: ProfileDatabase, merged: bool = True, title: str = "profile") -> str:
    """Human-readable session report."""
    if merged:
        profiles = sorted(db.merged().values(), key=lambda p: -p.cost_sum)
    else:
        profiles = sorted(db, key=lambda p: (-p.cost_sum, p.thread))
    rows = [routine_summary(profile) for profile in profiles]
    headers = ["routine", "thread", "calls", "points", "input", "worst", "induced"]
    thread_pct, external_pct = induced_split(db)
    footer = (
        f"threads: {len(db.threads())}   routines: {len(db.routines())}   "
        f"induced split: {thread_pct:.1f}% thread / {external_pct:.1f}% external\n"
    )
    return table(headers, rows, title=title) + footer


def render_analysis_stats(stats) -> str:
    """Time report of one analysis pass (``repro.farm.AnalysisStats``).

    One row for the shared chunk decode and one per metric's kernel,
    each with its events/s over the whole trace.
    """
    def row(stage: str, seconds: float) -> List:
        rate = f"{stats.events / seconds:,.0f}" if seconds > 0 else "-"
        return [stage, f"{seconds * 1000:.1f}ms", rate]

    rows = [row("decode", stats.decode_seconds)]
    rows.extend(row(f"kernel {metric}", seconds)
                for metric, seconds in stats.metric_seconds.items())
    footer = f"trace events: {stats.events}   chunks: {stats.chunks}\n"
    return table(["stage", "time", "events/s"], rows,
                 title="analysis pass", left=(0,)) + footer


def dump_points(db: ProfileDatabase, stream: TextIO) -> int:
    """Write every plot point as tab-separated values; return the count.

    Format per line: routine, thread, size, calls, min, max, sum —
    the information aprof's report files carry per (routine, rms) pair.
    """
    count = 0
    for profile in db:
        for size in sorted(profile.points):
            stats = profile.points[size]
            stream.write(
                f"{profile.routine}\t{profile.thread}\t{size}\t"
                f"{stats.calls}\t{stats.cost_min}\t{stats.cost_max}\t{stats.cost_sum}\n"
            )
            count += 1
    return count


def parse_points(stream: TextIO) -> ProfileDatabase:
    """Rebuild a database from :func:`dump_points` output.

    Reconstructs aggregate-equivalent profiles: per (routine, thread,
    size) the call count and cost envelope survive the round trip; the
    per-activation induced split does not (the dump format, like
    aprof's, does not carry it).
    """
    db = ProfileDatabase()
    for line in stream:
        line = line.strip()
        if not line:
            continue
        routine, thread, size, calls, cost_min, cost_max, cost_sum = line.split("\t")
        calls = int(calls)
        cost_min = int(cost_min)
        cost_max = int(cost_max)
        cost_sum = int(cost_sum)
        size = int(size)
        thread = int(thread)
        # reconstruct the envelope: min and max once, the rest at the mean
        remaining = calls - 2
        if calls == 1:
            db.add_activation(routine, thread, size, cost_max)
            continue
        db.add_activation(routine, thread, size, cost_min)
        db.add_activation(routine, thread, size, cost_max)
        if remaining > 0:
            body = cost_sum - cost_min - cost_max
            base = body // remaining
            extra = body - base * remaining
            for index in range(remaining):
                db.add_activation(
                    routine, thread, size, base + (1 if index < extra else 0)
                )
    return db
