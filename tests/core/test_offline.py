"""Differential tests: offline analysis of a recorded trace vs the online profilers.

Offline analysis is what ``repro analyze`` runs: the trace is spooled to
a v2 file and :func:`repro.farm.analyze_file` feeds each decoded chunk
to the flat kernel of every requested metric.  It is only worth anything if it is *exactly* the
analysis the online profilers do while the program runs; these
properties say it is, for both metrics.
"""

from hypothesis import given, settings

from repro.core import RmsProfiler, TrmsProfiler, replay
from repro.core.flatkernel import METRICS
from repro.farm import analyze_events

from .util import db_snapshot, events_strategy

ONLINE = {"rms": RmsProfiler, "trms": TrmsProfiler}


def online_db(events, metric, **kwargs):
    profiler = ONLINE[metric](keep_activations=True, **kwargs)
    replay(events, profiler)
    return profiler.db


def offline_db(events, metric, **kwargs):
    return analyze_events(events, keep_activations=True,
                          metrics=(metric,), **kwargs).db


@settings(max_examples=150, deadline=None)
@given(events_strategy())
def test_offline_equals_online(events):
    for metric in METRICS:
        assert db_snapshot(offline_db(events, metric)) == \
            db_snapshot(online_db(events, metric)), metric


@settings(max_examples=60, deadline=None)
@given(events_strategy())
def test_offline_context_sensitive_equals_online(events):
    for metric in METRICS:
        offline = offline_db(events, metric, context_sensitive=True)
        online = online_db(events, metric, context_sensitive=True)
        assert db_snapshot(offline) == db_snapshot(online), metric


def test_offline_on_real_vm_trace(tmp_path):
    """End to end on a recorded multithreaded guest run, both metrics
    from one pass: the consumer of Figure 2 reads 20 values the producer
    wrote — 20 induced first-accesses under TRMS."""
    from repro.farm import BinaryTraceWriter, analyze_file, read_binary_trace
    from repro.vm import programs

    path = tmp_path / "pc.rpt2"
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=64)
        programs.producer_consumer(20).run(tools=writer)
        writer.close()
    with open(path, "rb") as stream:
        events = read_binary_trace(stream)
    offline = analyze_file(str(path), metrics=METRICS, keep_activations=True).dbs
    for metric in METRICS:
        assert db_snapshot(offline[metric]) == \
            db_snapshot(online_db(events, metric)), metric
    trms = offline["trms"]
    consumer = [a for a in trms.activations if a.routine == "consumer"][0]
    assert consumer.size == 20
    assert consumer.induced_thread == 20
