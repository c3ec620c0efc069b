"""Dashboards: ASCII and HTML rendering of telemetry runs, analysis stats."""

from repro import telemetry
from repro.farm import analyze_file
from repro.reporting import (
    render_analysis_stats,
    render_telemetry_dashboard,
    render_telemetry_html,
)
from repro.telemetry import TelemetryRun

from ..farm.util import record_benchmark_v2


def _farm_run(tmp_path):
    path = tmp_path / "run.rpt2"
    record_benchmark_v2("350.md", path, threads=4, scale=0.5)
    with telemetry.session(str(tmp_path / "tele")):
        result = analyze_file(str(path), metrics=("rms", "trms"))
    return result, TelemetryRun.load(str(tmp_path / "tele"))


def test_ascii_dashboard_sections(tmp_path):
    _, run = _farm_run(tmp_path)
    dashboard = render_telemetry_dashboard(run)
    assert "span tree" in dashboard
    assert "analyze.decode" in dashboard
    assert "analyze.kernel" in dashboard
    assert "farm.trace_events" in dashboard
    assert "farm.kernel.events{metric=rms}" in dashboard
    assert "histogram" in dashboard


def test_html_dashboard_is_self_contained(tmp_path):
    _, run = _farm_run(tmp_path)
    html = render_telemetry_html(run, title="farm run")
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html          # the span timeline
    assert "analyze.kernel" in html
    # no external assets: nothing is fetched from anywhere
    assert "src=" not in html and "href=" not in html


def test_dashboard_of_empty_run_renders():
    run = TelemetryRun([{"type": "meta", "version": 1}])
    dashboard = render_telemetry_dashboard(run)
    assert "spans: 0" in dashboard
    assert render_telemetry_html(run).startswith("<!DOCTYPE html>")


def test_analysis_stats_report(tmp_path):
    result, _ = _farm_run(tmp_path)
    report = render_analysis_stats(result.stats)
    for row in ("decode", "kernel rms", "kernel trms"):
        assert row in report
    assert f"trace events: {result.stats.events}" in report
    assert f"chunks: {result.stats.chunks}" in report
