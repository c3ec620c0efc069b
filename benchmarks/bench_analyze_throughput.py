"""One-pass analysis throughput on a recorded 16-thread workload mix.

``analyze_file`` decodes each chunk of a v2 trace once and feeds it to
the flat kernel (:mod:`repro.core.flatkernel`) in the same process.
This bench records a 16-thread mix of three SPEC OMP workloads and
times that pass:

* exactness first: the TRMS profile equals the online
  :class:`~repro.core.trms.TrmsProfiler`, and its dump hash rides in
  the envelope's ``gate.profile_sha256`` for :mod:`tools.bench_gate`;
* throughput (events/s) of the inline pass, best of three — absolute
  events/s are not comparable across machines, so it is informational
  and gated only with ``--absolute``.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import time

from repro.core import TrmsProfiler, replay
from repro.farm import BinaryTraceWriter, analyze_file, read_binary_trace, save_profile
from repro.reporting import table
from repro.workloads import benchmark as get_benchmark

from conftest import bench_scale, run_once, save_result

THREADS = 16
WORKLOADS = ("351.bwaves", "350.md", "372.smithwa")
ROUNDS = 3


def record_workload(path: str) -> int:
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=4096)
        for name in WORKLOADS:
            get_benchmark(name).run(tools=writer, threads=THREADS, scale=1.5)
        writer.close()
    return writer.events_written


def profile_snapshot(db):
    return sorted(
        (p.routine, p.thread, p.calls, p.size_sum, p.cost_sum,
         p.induced_thread_sum, p.induced_external_sum)
        for p in db
    ), db.total_induced()


def run_study():
    handle, path = tempfile.mkstemp(suffix=".rpt2")
    os.close(handle)
    try:
        event_count = record_workload(path)

        with open(path, "rb") as stream:
            events = read_binary_trace(stream)
        online = TrmsProfiler()
        replay(events, online)
        online_snapshot = profile_snapshot(online.db)
        del events

        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            result = analyze_file(path)
            best = min(best, time.perf_counter() - start)
        stream = io.StringIO()
        save_profile(result.db, stream)
        digest = hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
        return (event_count, best, result.stats, profile_snapshot(result.db),
                online_snapshot, digest)
    finally:
        os.unlink(path)


def test_analyze_throughput(benchmark):
    event_count, seconds, stats, snapshot, online_snapshot, digest = run_once(
        benchmark, run_study)

    print()
    print(table(
        ["pass", "time", "decode", "kernel", "events/s"],
        [["inline trms", f"{seconds * 1000:.1f}ms",
          f"{stats.decode_seconds * 1000:.1f}ms",
          f"{stats.metric_seconds['trms'] * 1000:.1f}ms",
          f"{event_count / seconds:,.0f}"]],
        title=f"One-pass analysis — {event_count} events, {THREADS} guest "
              f"threads, best of {ROUNDS}",
    ))

    # exactness is unconditional
    assert snapshot == online_snapshot, "inline analysis diverged from online"

    save_result("analyze_throughput", {
        "event_count": event_count,
        "timings_ms": {"inline": round(seconds * 1000, 2)},
        "host_cpus": os.cpu_count(),
        "gate": {
            "scale": bench_scale(),
            "ratios": {},
            "throughput": {
                "analyze_events_per_s:inline": round(event_count / seconds),
            },
            "profile_sha256": {"workload_mix": digest},
        },
    })
