"""Shared helpers for farm tests: v2 recording and comparable snapshots."""

from __future__ import annotations

from repro.core import RmsProfiler, TrmsProfiler, replay
from repro.farm import BinaryTraceWriter, read_binary_trace
from repro.workloads import benchmark


def record_benchmark_v2(name, path, threads=4, scale=0.5, chunk_events=256):
    """Record one benchmark execution straight to a v2 file; return events."""
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=chunk_events)
        benchmark(name).run(tools=writer, threads=threads, scale=scale)
        writer.close()
    with open(path, "rb") as stream:
        return read_binary_trace(stream)


def online_db(events, metric="trms", **kwargs):
    """The ground truth: the online profiler of ``metric`` over the events."""
    profiler_class = RmsProfiler if metric == "rms" else TrmsProfiler
    profiler = profiler_class(keep_activations=True, **kwargs)
    replay(events, profiler)
    return profiler.db


def comparable(db):
    """Order-insensitive, exact snapshot of a profile database."""
    profiles = {}
    for profile in db:
        points = {
            size: (stats.calls, stats.cost_min, stats.cost_max,
                   stats.cost_sum, stats.cost_sumsq)
            for size, stats in profile.points.items()
        }
        profiles[(profile.routine, profile.thread)] = (
            points, profile.calls, profile.size_sum, profile.cost_sum,
            profile.induced_thread_sum, profile.induced_external_sum,
        )
    return profiles, db.total_induced(), sorted(db.activations)
