"""Farm extension: the multiprocess speedup the GIL withheld, measured.

Replayed offline in global trace order, a thread's profile depends
only on its own events and the latest writes before its reads, so the
analysis is *structurally* parallel — but Python threads stay within
noise of sequential under the GIL; speedup requires processes.  This
bench makes that measurement with the farm's process workers on a
recorded 16-thread workload mix:

* exactness first: farm output (any jobs count) is bit-identical to
  the online profiler — speed never buys back correctness;
* throughput (events/s) and parallel efficiency for 1 vs 4 worker
  processes, on the same v2 trace file;
* the speedup assertion (>1.5x with 4 workers) only fires on hosts
  with >= 4 CPUs — on smaller machines the numbers are printed and the
  multiprocess run is only required not to collapse (the fork/IPC tax
  stays bounded).
"""

from __future__ import annotations

import os
import tempfile
import time

import hashlib
import io

from repro.core import TrmsProfiler, replay
from repro.farm import BinaryTraceWriter, analyze_file, read_binary_trace, save_profile
from repro.reporting import table
from repro.workloads import benchmark as get_benchmark

from conftest import bench_scale, run_once, save_result

THREADS = 16
WORKLOADS = ("351.bwaves", "350.md", "372.smithwa")
JOBS = (1, 4)


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

        timings = {}
        snapshots = {}
        digest = None
        for jobs in JOBS:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                result = analyze_file(path, jobs=jobs)
                best = min(best, time.perf_counter() - start)
            timings[jobs] = best
            snapshots[jobs] = profile_snapshot(result.db)
            stream = io.StringIO()
            save_profile(result.db, stream)
            digest = hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
        return event_count, timings, snapshots, online_snapshot, digest
    finally:
        os.unlink(path)


def test_farm_speedup(benchmark):
    event_count, timings, snapshots, online_snapshot, digest = run_once(
        benchmark, run_study)

    speedup = timings[1] / timings[4] if timings[4] else float("inf")
    rows = []
    for jobs in JOBS:
        seconds = timings[jobs]
        rows.append([
            f"{jobs} worker process(es)",
            f"{seconds * 1000:.1f}ms",
            f"{event_count / seconds:,.0f}",
            f"{timings[1] / seconds:.2f}x",
            f"{timings[1] / seconds / jobs * 100:.0f}%",
        ])
    print()
    print(table(
        ["configuration", "time", "events/s", "speedup", "efficiency"],
        rows,
        title=f"Farm speedup — {event_count} events, {THREADS} guest threads, "
              f"{os.cpu_count()} host CPUs",
    ))

    # exactness is unconditional: processes must change nothing
    for jobs in JOBS:
        assert snapshots[jobs] == online_snapshot, f"jobs={jobs} diverged"

    save_result("farm_speedup", {
        "event_count": event_count,
        "timings_ms": {str(jobs): round(timings[jobs] * 1000, 2) for jobs in JOBS},
        "speedup_4v1": round(speedup, 2),
        "host_cpus": os.cpu_count(),
        "gate": {
            "scale": bench_scale(),
            # parallel speedup depends on the host's core count, so the
            # gate only holds the result *exact* (hash) — throughput is
            # informational and compared with --absolute alone
            "ratios": {},
            "throughput": {
                "farm_events_per_s:4jobs": round(event_count / timings[4])
                if timings[4] else 0,
            },
            "profile_sha256": {"workload_mix": digest},
        },
    })

    if (os.cpu_count() or 1) >= 4:
        # the measurement the GIL forbade: real parallel speedup
        assert speedup > 1.5, timings
    else:
        # Undersized host: with fewer CPUs than workers the runs
        # serialise, and each worker redundantly rebuilds the write
        # index from the write chunks — so wall time can approach
        # (workers x index share) of sequential.  Only require that
        # ceiling to hold; the speedup itself needs real cores.  The
        # constant term absorbs pool spawn cost, which the flat kernel
        # made visible by shrinking the sequential time itself.
        assert timings[4] < (1.5 * max(JOBS)) * timings[1] + 1.0, timings
