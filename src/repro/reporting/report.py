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
    "render_farm_stats",
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


def _shard_counter(stats, name: str, shard_id: int, fallback: int) -> int:
    """A per-shard counter value from the farm's telemetry snapshot.

    The engine counts retries/timeouts/fallbacks in its metrics
    registry as they happen; the snapshot rides along in
    ``FarmStats.metrics``.  Older/synthetic stats without a snapshot
    fall back to the value mirrored on the outcome itself.
    """
    for entry in stats.metrics or ():
        if (entry.get("kind") == "counter" and entry.get("name") == name
                and entry.get("labels", {}).get("shard") == shard_id):
            return entry["value"]
    return fallback


def render_farm_stats(stats) -> str:
    """Progress/health report of one farm run (``repro.farm.FarmStats``).

    One row per shard — where it ran, how many pool attempts it took,
    how the worker split its time between decode and analysis,
    heartbeat-reported peak RSS and throughput — plus the per-shard
    failure ledger (retries / timeouts / inline fallback), sourced from
    the farm's telemetry counters, and a footer with the plan strategy
    and aggregate tallies.
    """
    rows = []
    for outcome in stats.outcomes:
        fell_back = _shard_counter(
            stats, "farm.shard.fallbacks", outcome.shard_id,
            1 if outcome.where == "inline" and stats.jobs > 1 else 0)
        rows.append([
            outcome.shard_id,
            len(outcome.threads),
            outcome.events,
            f"{outcome.seconds * 1000:.1f}ms",
            f"{outcome.decode_seconds * 1000:.0f}/"
            f"{outcome.analyze_seconds * 1000:.0f}ms",
            f"{outcome.events_per_s:,.0f}",
            outcome.heartbeats,
            f"{outcome.max_rss_kb / 1024:.0f}M" if outcome.max_rss_kb else "-",
            outcome.attempts,
            _shard_counter(stats, "farm.shard.retries",
                           outcome.shard_id, outcome.retries),
            _shard_counter(stats, "farm.shard.timeouts",
                           outcome.shard_id, outcome.timeouts),
            outcome.where + ("!" if fell_back else ""),
        ])
    headers = ["shard", "threads", "events", "time", "dec/ana", "events/s",
               "beats", "rss", "attempts", "retries", "timeouts", "ran"]
    footer = (
        f"plan: {stats.strategy}   jobs: {stats.jobs}   "
        f"metric: {stats.metric}   "
        f"trace events: {stats.event_count}   wall: {stats.wall_seconds * 1000:.1f}ms\n"
        f"retries: {stats.retries}   inline fallbacks: {stats.fallbacks}   "
        f"pool failures: {stats.pool_failures}\n"
        "('!' marks a shard that exhausted its pool attempts and ran inline)\n"
    )
    return table(headers, rows, title="farm shards") + footer


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
