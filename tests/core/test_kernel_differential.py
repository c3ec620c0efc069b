"""Differential property tests: the flat-array kernel vs the online profilers.

The flat kernel (:mod:`repro.core.flatkernel`) is the one offline copy of
the latest-access algorithm: columnar event batches, a packed
latest-write shadow (TRMS only), flat array stacks, a single interleaved
pass.  Its contract is *bit identity*: on any trace hypothesis can dream
up, each metric must produce exactly the database of the online
:class:`~repro.core.rms.RmsProfiler` / :class:`~repro.core.trms.TrmsProfiler`
— including under timestamp renumbering (Section 4.4) and context
sensitivity.  Every property checks both metrics on the same trace.
"""

import io

import pytest
from hypothesis import given, settings

from repro.core import NaiveRms, ProfileDatabase, RmsProfiler, TrmsProfiler, replay
from repro.core.flatkernel import METRICS, FlatAnalyzer, analyze_events_flat

from .util import db_snapshot, events_strategy

ONLINE = {"rms": RmsProfiler, "trms": TrmsProfiler}


def flat_db(events, metric, **kwargs):
    db = ProfileDatabase(keep_activations=True)
    analyze_events_flat(events, db, metric=metric, **kwargs)
    return db


def online_db(events, metric, **kwargs):
    profiler = ONLINE[metric](keep_activations=True, **kwargs)
    replay(events, profiler)
    return profiler.db


@settings(max_examples=150, deadline=None)
@given(events_strategy())
def test_flat_kernel_matches_online_profiler(events):
    for metric in METRICS:
        assert db_snapshot(flat_db(events, metric)) == \
            db_snapshot(online_db(events, metric)), metric


@settings(max_examples=120, deadline=None)
@given(events_strategy())
def test_flat_kernel_matches_online_under_renumbering(events):
    """The online profiler under a tiny counter bound renumbers its
    timestamps constantly (Section 4.4); the flat kernel uses unbounded
    trace positions and must still land on the identical profiles —
    the counter-overflow edge cases cancel out or neither is exact."""
    for metric in METRICS:
        assert db_snapshot(flat_db(events, metric)) == \
            db_snapshot(online_db(events, metric, max_count=40)), metric


@settings(max_examples=120, deadline=None)
@given(events_strategy())
def test_flat_kernel_context_sensitive_matches_online(events):
    for metric in METRICS:
        flat = flat_db(events, metric, context_sensitive=True)
        online = online_db(events, metric, context_sensitive=True)
        assert db_snapshot(flat) == db_snapshot(online), metric


@settings(max_examples=100, deadline=None)
@given(events_strategy())
def test_flat_kernel_dumps_are_byte_identical(events):
    """The CI gate ``cmp``s profile dumps, so equality has to hold at the
    *byte* level of ``save_profile``, not just structurally."""
    from repro.farm import save_profile

    for metric in METRICS:
        flat_dump = io.StringIO()
        online_dump = io.StringIO()
        save_profile(flat_db(events, metric), flat_dump)
        save_profile(online_db(events, metric), online_dump)
        assert flat_dump.getvalue() == online_dump.getvalue(), metric


@settings(max_examples=150, deadline=None)
@given(events_strategy())
def test_flat_rms_matches_naive_oracle(events):
    """Flat RMS against the Figure 10 stack-walking oracle directly, so
    the kernel is not only as right as the profiler it mirrors."""
    oracle = NaiveRms(keep_activations=True)
    replay(events, oracle)
    assert db_snapshot(flat_db(events, "rms")) == db_snapshot(oracle.db)


def test_flat_kernel_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        FlatAnalyzer([], ProfileDatabase(), metric="both")


def test_flat_kernel_on_real_vm_trace(tmp_path):
    """End to end on a recorded multithreaded guest run: the consumer of
    Figure 2 reads 20 values the producer wrote — 20 induced
    first-accesses under TRMS."""
    from repro.farm import BinaryTraceWriter, read_binary_trace
    from repro.vm import programs

    path = tmp_path / "pc.rpt2"
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream)
        programs.producer_consumer(20).run(tools=writer)
        writer.close()
    with open(path, "rb") as stream:
        events = read_binary_trace(stream)
    for metric in METRICS:
        assert db_snapshot(flat_db(events, metric)) == \
            db_snapshot(online_db(events, metric)), metric
    trms = flat_db(events, "trms")
    consumer = [a for a in trms.activations if a.routine == "consumer"][0]
    assert consumer.size == 20
    assert consumer.induced_thread == 20
