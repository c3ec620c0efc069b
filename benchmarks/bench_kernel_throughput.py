"""Flat-array kernel throughput: the columnar hot loop vs online replay.

The flat kernel is the one offline analysis: every ``repro analyze``
runs it, for RMS and for TRMS.  This bench measures the quantity the
kernel was built for — one-metric analysis throughput (events/s) of
``analyze_file`` — against decoding the same recorded v2 trace into
``Event`` objects and replaying it through the online
:class:`~repro.core.rms.RmsProfiler` / :class:`~repro.core.trms.TrmsProfiler`,
the object-per-event path the kernel replaces:

* exactness first: for every workload and metric the two paths'
  profile dumps must be byte-identical (the SHA-256 digests are
  recorded in the result envelope and re-checked by the CI benchmark
  gate);
* throughput and speedup per workload and metric, best-of-N to shed
  scheduler noise;
* the speedup assertion (flat > 2x online) is deliberately below what
  a quiet machine measures so CI jitter cannot flake it; the *recorded*
  speedups ride in the envelope's ``gate.ratios`` and are what
  :mod:`tools.bench_gate` holds future commits to (>25% regression
  fails the gate).
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import time

from repro.core import RmsProfiler, TrmsProfiler, replay
from repro.core.flatkernel import METRICS
from repro.farm import BinaryTraceWriter, analyze_file, iter_binary_trace, save_profile
from repro.farm.binfmt import read_trace_meta
from repro.reporting import table
from repro.workloads import benchmark as get_benchmark

from conftest import bench_scale, run_once, save_result

WORKLOADS = ("376.kdtree", "350.md")
THREADS = 4
PATHS = ("online", "flat")
ONLINE = {"rms": RmsProfiler, "trms": TrmsProfiler}
ROUNDS = 9


def record_workload(name: str, path: str, scale: float) -> int:
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=4096)
        get_benchmark(name).run(tools=writer, threads=THREADS, scale=scale)
        writer.close()
    return writer.events_written


def profile_digest(db) -> str:
    stream = io.StringIO()
    save_profile(db, stream)
    return hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()


def online_replay(path: str, metric: str):
    """What the kernel replaces: decode to Events, replay online."""
    profiler = ONLINE[metric]()
    with open(path, "rb") as stream:
        replay(iter_binary_trace(stream), profiler)
    return profiler.db


def measure_paths(path: str, metric: str):
    """Best-of-N wall time and profile digest per path, for one metric.

    The paths' rounds are *interleaved* (online, flat, online, …) so a
    frequency step or a noisy neighbour hits both alike — the gate
    compares the speedup ratio, which interleaving keeps stable where
    back-to-back blocks would skew it.
    """
    with open(path, "rb") as stream:
        meta = read_trace_meta(stream)
    runs = {
        "online": lambda: online_replay(path, metric),
        "flat": lambda: analyze_file(path, metrics=(metric,)).db,
    }
    seconds = {kind: float("inf") for kind in PATHS}
    digests = {kind: profile_digest(run()) for kind, run in runs.items()}
    for _ in range(ROUNDS):
        for kind, run in runs.items():
            start = time.perf_counter()
            run()
            seconds[kind] = min(seconds[kind], time.perf_counter() - start)
    return meta.event_count, seconds, digests


def run_study(scale: float):
    study = {}
    for name in WORKLOADS:
        handle, path = tempfile.mkstemp(suffix=".rpt2")
        os.close(handle)
        try:
            record_workload(name, path, scale)
            for metric in METRICS:
                events, seconds, digests = measure_paths(path, metric)
                study[f"{metric}:{name}"] = {
                    "events": events, "seconds": seconds, "digests": digests}
        finally:
            os.unlink(path)
    return study


def test_kernel_throughput(benchmark, scale):
    study = run_once(benchmark, lambda: run_study(scale))

    rows = []
    throughput = {}
    ratios = {}
    hashes = {}
    for key, data in study.items():
        online = data["seconds"]["online"]
        for kind in PATHS:
            events_per_s = data["events"] / data["seconds"][kind]
            throughput[f"{kind}_events_per_s:{key}"] = round(events_per_s)
            rows.append([
                key, kind, data["events"],
                f"{data['seconds'][kind] * 1000:.1f}ms",
                f"{events_per_s:,.0f}",
                f"{online / data['seconds'][kind]:.2f}x",
            ])
        flat = data["seconds"]["flat"]
        ratios[f"speedup:{key}"] = round(online / flat if flat else float("inf"), 2)
        hashes[key] = data["digests"]["flat"]
    print()
    print(table(
        ["metric:workload", "path", "events", "time", "events/s", "speedup"],
        rows,
        title=f"Analysis throughput, flat kernel vs online replay — "
              f"one metric per pass, best of {ROUNDS}",
    ))

    # exactness is unconditional: flat must be byte-identical to online
    for key, data in study.items():
        assert data["digests"]["flat"] == data["digests"]["online"], \
            f"{key}: the flat kernel and online replay produced different profiles"

    # the paper-shape assertion: columnar flat beats object-per-event
    # online replay with margin (threshold sheds CI noise)
    for key, data in study.items():
        assert data["seconds"]["flat"] < data["seconds"]["online"] / 2, \
            f"{key}: flat kernel not >2x online replay: {data['seconds']}"

    save_result("kernel_throughput", {
        "workloads": study,
        "gate": {
            "scale": bench_scale(),
            "ratios": ratios,
            "throughput": throughput,
            "profile_sha256": hashes,
        },
    })
