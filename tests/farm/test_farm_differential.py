"""Differential tests: the farm's contract is bit-exactness.

Farm-analysed profiles (any shard plan, in-process or multiprocess,
either metric) must equal the online ``RmsProfiler``/``TrmsProfiler`` on
every registered workload suite, dump byte-identically to them, and
merged per-run profiles must equal the merge of the online results.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flatkernel import METRICS
from repro.farm import (
    analyze_events,
    analyze_file,
    merge_databases,
    plan_shards,
    read_trace_meta,
    save_profile,
)
from repro.workloads import all_benchmarks

from ..core.util import events_strategy
from .util import comparable, online_db, record_benchmark_v2

ALL_NAMES = [bench.name for bench in all_benchmarks()]
#: one entry per kernel family, both suites — the multiprocess subset
POOLED_NAMES = ["350.md", "367.imagick", "376.kdtree", "dedup", "canneal", "vips"]
#: both metrics, under the ids these tests had when they compared the
#: flat and classic kernels (both computing TRMS), so test ids stay
#: stable across the change of axis
METRIC_PARAMS = [pytest.param("trms", id="flat"), pytest.param("rms", id="classic")]


def dump_of(db) -> str:
    stream = io.StringIO()
    save_profile(db, stream)
    return stream.getvalue()


@pytest.mark.parametrize("metric", METRIC_PARAMS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_farm_equals_online_on_every_benchmark(name, metric, tmp_path):
    """In-process farm (full shard/decode/merge machinery) vs online."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    result = analyze_file(str(path), jobs=1, keep_activations=True, metric=metric)
    assert comparable(result.db) == comparable(online_db(events, metric=metric))
    assert result.stats.metric == metric


@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernel_dumps_byte_identical_on_every_benchmark(name, tmp_path):
    """Both metrics' farm dumps must equal the online profilers' dumps to
    the *byte*, context off and on, at one job and at three — the
    equality the CI gate re-checks with ``cmp``."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    for context in (False, True):
        for metric in METRICS:
            online = dump_of(online_db(events, metric=metric,
                                       context_sensitive=context))
            for jobs in (1, 3):
                result = analyze_file(str(path), jobs=jobs, metric=metric,
                                      context_sensitive=context)
                assert dump_of(result.db) == online, (metric, context, jobs)


@pytest.mark.parametrize("metric", METRIC_PARAMS)
@pytest.mark.parametrize("name", POOLED_NAMES)
def test_multiprocess_farm_equals_online(name, metric, tmp_path):
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=6, scale=0.5)
    result = analyze_file(str(path), jobs=3, keep_activations=True, metric=metric)
    assert comparable(result.db) == comparable(online_db(events, metric=metric))
    # every shard really ran on the pool, no silent degradation
    assert all(outcome.where == "pool" for outcome in result.stats.outcomes)
    assert result.stats.fallbacks == 0


def test_farm_exact_under_any_jobs_count(tmp_path):
    """Shard plans differ with the job count; the profile must not."""
    path = tmp_path / "md.rpt2"
    events = record_benchmark_v2("350.md", path, threads=6, scale=0.5)
    reference = comparable(online_db(events))
    for jobs in (1, 2, 5, 16):
        result = analyze_file(str(path), jobs=jobs, keep_activations=True)
        assert comparable(result.db) == reference, f"jobs={jobs}"


def test_farm_context_sensitive_equals_online(tmp_path):
    path = tmp_path / "kdtree.rpt2"
    events = record_benchmark_v2("376.kdtree", path, threads=4, scale=0.5)
    result = analyze_file(str(path), jobs=2, context_sensitive=True,
                          keep_activations=True)
    assert comparable(result.db) == \
        comparable(online_db(events, context_sensitive=True))


def test_skewed_plan_is_exact(tmp_path):
    """dedup's pipeline stages are uneven; force tiny chunks so the
    planner has boundaries to cut, then check both strategies' output."""
    path = tmp_path / "dedup.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5,
                                 chunk_events=32)
    with open(path, "rb") as stream:
        meta = read_trace_meta(stream)
    plan = plan_shards(meta, 3)
    result = analyze_file(str(path), jobs=3, keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events)), plan.strategy


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=100), st.sampled_from([4, 64]),
       st.sampled_from(METRICS))
def test_farm_equals_online_on_arbitrary_streams(events, chunk_events, metric):
    result = analyze_events(events, jobs=1, chunk_events=chunk_events,
                            keep_activations=True, metric=metric)
    assert comparable(result.db) == comparable(online_db(events, metric=metric))


def test_merged_runs_equal_merged_online(tmp_path):
    """merge(farm(A), farm(B)) == merge(online(A), online(B))."""
    farm_dbs, online_dbs = [], []
    for index, scale in enumerate((0.4, 0.7)):
        path = tmp_path / f"run{index}.rpt2"
        events = record_benchmark_v2("372.smithwa", path, threads=4, scale=scale)
        farm_dbs.append(analyze_file(str(path), jobs=2).db)
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
    result = analyze_file(str(path), jobs=2, keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))
    assert path.exists()  # the conversion used a temp file, not the input
