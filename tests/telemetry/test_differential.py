"""Telemetry never perturbs profiles: bit-identical output on vs off."""

from repro import telemetry
from repro.core import TrmsProfiler, replay
from repro.core.flatkernel import METRICS
from repro.farm import analyze_file
from repro.telemetry import TelemetryRun

from ..farm.util import comparable, online_db, record_benchmark_v2


def test_online_profiler_identical_with_telemetry(tmp_path):
    events = record_benchmark_v2("376.kdtree", tmp_path / "run.rpt2",
                                 threads=3, scale=0.5)
    baseline = comparable(online_db(events))
    with telemetry.session(str(tmp_path / "tele")):
        profiler = TrmsProfiler(keep_activations=True)
        replay(events, profiler)
        profiler.on_finish()
        observed = comparable(profiler.db)
    assert observed == baseline
    run = TelemetryRun.load(str(tmp_path / "tele"))
    assert run.counter_value("profiler.timestamps", tool="aprof-trms") > 0


def test_farm_identical_with_telemetry_enabled(tmp_path):
    """The acceptance gate: analysis profiles with a live telemetry
    session equal both the telemetry-off run and the online profiler,
    and the session leaves a parseable event log with the decode and
    per-metric kernel spans."""
    path = tmp_path / "run.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5)
    without = analyze_file(str(path), metrics=METRICS, keep_activations=True)
    with telemetry.session(str(tmp_path / "tele")):
        with_tele = analyze_file(str(path), metrics=METRICS,
                                 keep_activations=True)
    for metric in METRICS:
        assert comparable(with_tele.dbs[metric]) == \
            comparable(without.dbs[metric])
        assert comparable(with_tele.dbs[metric]) == \
            comparable(online_db(events, metric=metric))

    run = TelemetryRun.load(str(tmp_path / "tele"))
    assert {"analyze.decode", "analyze.kernel"} <= set(run.span_names())
    assert [span["attrs"]["metric"] for span in run.spans_named("analyze.kernel")] \
        == list(METRICS)
    assert run.counter_value("farm.trace_events") == len(events)


def test_farm_stats_equal_with_and_without_session(tmp_path):
    """The stats record counts the same work either way."""
    path = tmp_path / "run.rpt2"
    record_benchmark_v2("canneal", path, threads=3, scale=0.4)
    without = analyze_file(str(path), metrics=METRICS)
    with telemetry.session(str(tmp_path / "tele")):
        with_tele = analyze_file(str(path), metrics=METRICS)
    for stats in (with_tele.stats, without.stats):
        assert list(stats.metric_seconds) == list(METRICS)
    assert (with_tele.stats.events, with_tele.stats.chunks) == \
        (without.stats.events, without.stats.chunks)
