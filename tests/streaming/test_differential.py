"""Streaming differential suite: arrival schedule must never matter.

The whole point of the live pipeline is that it is *free* of analysis
drift: feed the flat kernel chunk by chunk as a trace grows, and the
final profile — after ``finalize()`` — is byte-identical to the batch
``repro analyze --metric trms`` dump of the same trace.  These tests
drive real benchmark traces and hypothesis-generated traces through
arbitrary chunk-arrival schedules and compare dumps byte for byte.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.streaming import (
    LiveProfileSession,
    checkpoint_dump_bytes,
    load_manifest,
)

from ..core.util import events_strategy
from .util import batch_dump_bytes, benchmark_events, live_writer, replay_in_slices

#: named arrival schedules: event-index cut points as a function of n
SCHEDULES = {
    "all-at-once": lambda n: [],
    "halves": lambda n: [n // 2],
    "bursts": lambda n: list(range(0, n, max(1, n // 7))),
    "trickle": lambda n: list(range(0, n, max(1, n // 23))),
}


def stream_through(tmp_dir, events, cuts, chunk_events=32, **session_kwargs):
    """Write ``events`` live with polls at ``cuts``; return (session, db)."""
    trace = f"{tmp_dir}/trace.rpt2"
    session = LiveProfileSession(
        trace, f"{tmp_dir}/ckpt",
        checkpoint_events=session_kwargs.pop("checkpoint_events", 500),
        checkpoint_seconds=1e9, **session_kwargs)
    with live_writer(trace, chunk_events=chunk_events) as writer:
        replay_in_slices(events, writer, cuts, session.step)
    db = session.finalize()
    return session, db


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", ["376.kdtree", "372.smithwa"])
def test_benchmark_traces_any_schedule_byte_identical(tmp_path, name, schedule):
    events = benchmark_events(name, threads=2, scale=0.2)
    expected = batch_dump_bytes(events)
    cuts = SCHEDULES[schedule](len(events))
    session, _db = stream_through(str(tmp_path), events, cuts)
    streamed = checkpoint_dump_bytes(str(tmp_path / "ckpt"))
    assert streamed == expected
    manifest = load_manifest(str(tmp_path / "ckpt"))
    assert manifest["closed"] is True
    assert manifest["events_analyzed"] == len(events)
    # mid-flight checkpoints were cut along the way for real schedules
    if schedule != "all-at-once":
        assert len(session.checkpoints) >= 1


@pytest.mark.parametrize("name", ["376.kdtree"])
def test_context_sensitive_streaming_byte_identical(tmp_path, name):
    events = benchmark_events(name, threads=2, scale=0.2)
    expected = batch_dump_bytes(events, context_sensitive=True)
    cuts = SCHEDULES["bursts"](len(events))
    stream_through(str(tmp_path), events, cuts, context_sensitive=True)
    assert checkpoint_dump_bytes(str(tmp_path / "ckpt")) == expected


@settings(max_examples=25, deadline=None)
@given(events_strategy(max_ops=120),
       st.lists(st.integers(min_value=0, max_value=400), max_size=8),
       st.sampled_from([1, 7, 32]))
def test_hypothesis_traces_any_cuts_byte_identical(events, raw_cuts, chunk_events):
    """Any trace, any cut points, any chunk size: same bytes."""
    expected = batch_dump_bytes(events)
    cuts = sorted(min(c, len(events)) for c in raw_cuts)
    with tempfile.TemporaryDirectory() as tmp_dir:
        stream_through(tmp_dir, events, cuts, chunk_events=chunk_events,
                       checkpoint_events=64)
        assert checkpoint_dump_bytes(f"{tmp_dir}/ckpt") == expected


def test_checkpoint_chain_reassembles_at_every_seq(tmp_path):
    """Deltas must reassemble: ingest the *final* manifest through the
    chain reader and get the exact batch dump even when most checkpoints
    were delta-encoded."""
    events = benchmark_events("376.kdtree", threads=2, scale=0.2)
    cuts = SCHEDULES["trickle"](len(events))
    session, _db = stream_through(str(tmp_path), events, cuts,
                                  checkpoint_events=200, full_every=5)
    assert any(info.delta for info in session.checkpoints)
    assert checkpoint_dump_bytes(str(tmp_path / "ckpt")) == batch_dump_bytes(events)
