"""Differential tests: the offline analysis's contract is bit-exactness.

``analyze_file`` profiles (either metric, or both from one decode) must
equal the online ``RmsProfiler``/``TrmsProfiler`` on every registered
workload suite and dump byte-identically to them, from v2 and v1
input; merged per-run profiles must equal the merge of the online
results.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flatkernel import METRICS
from repro.farm import (
    analyze_events,
    analyze_file,
    convert_v2_to_v1,
    merge_databases,
    save_profile,
)
from repro.workloads import all_benchmarks

from ..core.util import events_strategy
from .util import comparable, online_db, record_benchmark_v2

ALL_NAMES = [bench.name for bench in all_benchmarks()]
METRIC_PARAMS = [pytest.param(metric, id=metric) for metric in ("trms", "rms")]


def dump_of(db) -> str:
    stream = io.StringIO()
    save_profile(db, stream)
    return stream.getvalue()


@pytest.mark.parametrize("metric", METRIC_PARAMS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_farm_equals_online_on_every_benchmark(name, metric, tmp_path):
    """One-metric analysis (decode, kernel, activations) vs online."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    result = analyze_file(str(path), metrics=(metric,), keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events, metric=metric))
    assert list(result.stats.metric_seconds) == [metric]
    assert result.stats.events == len(events)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernel_dumps_byte_identical_on_every_benchmark(name, tmp_path):
    """Both metrics' dumps, computed from one decode, must equal the
    online profilers' dumps to the *byte*, context off and on, from the
    v2 trace and from its v1 conversion — the equality the CI gate
    re-checks with ``cmp``."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    text_path = tmp_path / f"{name}.trace"
    with open(path, "rb") as binary, open(text_path, "w") as text:
        convert_v2_to_v1(binary, text)
    for context in (False, True):
        online = {metric: dump_of(online_db(events, metric=metric,
                                            context_sensitive=context))
                  for metric in METRICS}
        for trace in (path, text_path):
            result = analyze_file(str(trace), metrics=METRICS,
                                  context_sensitive=context)
            for metric in METRICS:
                assert dump_of(result.dbs[metric]) == online[metric], \
                    (metric, context, trace.suffix)


def test_farm_context_sensitive_equals_online(tmp_path):
    path = tmp_path / "kdtree.rpt2"
    events = record_benchmark_v2("376.kdtree", path, threads=4, scale=0.5)
    result = analyze_file(str(path), context_sensitive=True,
                          keep_activations=True)
    assert comparable(result.db) == \
        comparable(online_db(events, context_sensitive=True))


def test_tiny_chunks_are_exact(tmp_path):
    """dedup's uneven pipeline stages cut into 32-event chunks: thread
    runs and write/read pairs straddle many chunk boundaries."""
    path = tmp_path / "dedup.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5,
                                 chunk_events=32)
    result = analyze_file(str(path), metrics=METRICS, keep_activations=True)
    assert result.stats.chunks > 1
    for metric in METRICS:
        assert comparable(result.dbs[metric]) == \
            comparable(online_db(events, metric=metric)), metric


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=100), st.sampled_from([4, 64]),
       st.sampled_from([METRICS, METRICS[::-1]]))
def test_farm_equals_online_on_arbitrary_streams(events, chunk_events, metrics):
    result = analyze_events(events, chunk_events=chunk_events,
                            keep_activations=True, metrics=metrics)
    assert list(result.dbs) == list(metrics)
    for metric in metrics:
        assert comparable(result.dbs[metric]) == \
            comparable(online_db(events, metric=metric)), metric


def test_merged_runs_equal_merged_online(tmp_path):
    """merge(farm(A), farm(B)) == merge(online(A), online(B))."""
    farm_dbs, online_dbs = [], []
    for index, scale in enumerate((0.4, 0.7)):
        path = tmp_path / f"run{index}.rpt2"
        events = record_benchmark_v2("372.smithwa", path, threads=4, scale=scale)
        farm_dbs.append(analyze_file(str(path)).db)
        online_dbs.append(online_db(events))
    merged_farm = merge_databases(farm_dbs)
    merged_online = merge_databases(online_dbs)
    assert comparable(merged_farm)[:2] == comparable(merged_online)[:2]


def test_v1_trace_is_converted_and_exact(tmp_path):
    """analyze_file accepts a v1 text trace (converts to v2 internally)."""
    from repro.core import TraceWriter, read_trace
    from repro.workloads import benchmark as get_benchmark

    path = tmp_path / "run.trace"
    with open(path, "w") as stream:
        writer = TraceWriter(stream)
        get_benchmark("358.botsalgn").run(tools=writer, threads=4, scale=0.5)
    with open(path) as stream:
        events = read_trace(stream)
    result = analyze_file(str(path), keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))
    assert path.exists()  # the conversion used a temp file, not the input
