"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_shows_both_suites():
    code, output = run_cli("list")
    assert code == 0
    assert "350.md" in output
    assert "dedup" in output
    assert "spec-omp2012" in output and "parsec" in output


def test_profile_basic():
    code, output = run_cli("profile", "352.nab", "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "basic blocks" in output
    assert "rms profile of 352.nab" in output
    assert "trms profile of 352.nab" in output
    assert "work_region" in output


def test_profile_single_metric():
    code, output = run_cli("profile", "352.nab", "--metric", "rms",
                           "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "rms profile" in output
    assert "trms profile" not in output


def test_profile_unknown_benchmark():
    code, output = run_cli("profile", "999.nothing")
    assert code == 2
    assert "error" in output


def test_profile_with_plot_and_bottlenecks():
    code, output = run_cli("profile", "376.kdtree", "--threads", "2",
                           "--plot", "search", "--bottlenecks")
    assert code == 0
    assert "bottleneck ranking" in output
    assert "worst-case cost plot" in output


def test_profile_plot_unknown_routine():
    code, output = run_cli("profile", "352.nab", "--threads", "2",
                           "--scale", "0.5", "--plot", "missing_routine")
    assert code == 2


def test_profile_context_sensitive():
    code, output = run_cli("profile", "376.kdtree", "--threads", "2", "--context")
    assert code == 0
    assert ";search" in output    # context keys visible in the report


def test_dump_and_fit_roundtrip(tmp_path):
    dump = tmp_path / "points.tsv"
    code, _ = run_cli("profile", "376.kdtree", "--threads", "2", "--dump", str(dump))
    assert code == 0
    assert dump.exists()
    code, output = run_cli("fit", str(dump), "search")
    assert code == 0
    assert "search:" in output
    assert "R^2" in output


def test_fit_unknown_routine(tmp_path):
    dump = tmp_path / "points.tsv"
    run_cli("profile", "376.kdtree", "--threads", "2", "--dump", str(dump))
    code, output = run_cli("fit", str(dump), "ghost")
    assert code == 2
    assert "error" in output


def test_profile_with_sampling():
    code, output = run_cli("profile", "352.nab", "--threads", "2",
                           "--scale", "0.5", "--sample", "4")
    assert code == 0
    assert "lower bounds" in output


def test_record_and_analyze_roundtrip(tmp_path):
    trace = tmp_path / "run.trace"
    code, output = run_cli("record", "358.botsalgn", str(trace),
                           "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "recorded" in output
    assert trace.exists()
    code, output = run_cli("analyze", str(trace), "--metric", "trms")
    assert code == 0
    assert "trms profile" in output
    assert "do_task" in output


def test_analyze_rejects_non_trace(tmp_path):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("hello\n")
    code, output = run_cli("analyze", str(bogus))
    assert code == 2
    assert "error" in output


def test_record_v2_is_binary_and_analyzable(tmp_path):
    trace = tmp_path / "run.rpt2"
    code, output = run_cli("record", "358.botsalgn", str(trace),
                           "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "chunks" in output
    assert trace.read_bytes().startswith(b"RPTRACE2")
    code, output = run_cli("analyze", str(trace), "--metric", "trms")
    assert code == 0
    assert "trms profile" in output and "do_task" in output


def test_record_v1_format_still_text(tmp_path):
    trace = tmp_path / "run.trace"
    code, _ = run_cli("record", "358.botsalgn", str(trace),
                      "--threads", "2", "--scale", "0.5", "--format", "v1")
    assert code == 0
    assert trace.read_text().startswith("repro-trace 1")


def test_analyze_stats_report(tmp_path):
    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    code, output = run_cli("analyze", str(trace), "--stats")
    assert code == 0
    assert "analysis pass" in output
    assert "events/s" in output
    assert output.count("decode") == 1
    assert "kernel rms" in output and "kernel trms" in output


def test_analyze_both_metrics_decode_each_chunk_once(tmp_path, monkeypatch):
    """``--metric both`` feeds both kernels from one decode of each chunk."""
    import sys

    from repro.farm import binfmt, read_trace_meta

    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5",
            "--chunk-events", "512")
    with open(trace, "rb") as stream:
        chunks = len(read_trace_meta(stream).chunks)
    assert chunks > 1
    decoded = []
    original = binfmt.decode_chunk_columns

    def counting(stream, chunk):
        decoded.append(chunk.offset)
        return original(stream, chunk)

    # patch every module that bound the decoder at import time
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "decode_chunk_columns", None) is original):
            monkeypatch.setattr(module, "decode_chunk_columns", counting)
    code, _ = run_cli("analyze", str(trace), "--metric", "both")
    assert code == 0
    assert len(decoded) == chunks
    assert len(set(decoded)) == chunks


def test_record_analyze_merge_fit_pipeline(tmp_path):
    """The full farm workflow end to end through temp files."""
    dumps = []
    for index, scale in enumerate(("0.5", "1.0")):
        trace = tmp_path / f"run{index}.rpt2"
        code, _ = run_cli("record", "376.kdtree", str(trace),
                          "--threads", "2", "--scale", scale)
        assert code == 0
        dump = tmp_path / f"run{index}.profile"
        code, output = run_cli("analyze", str(trace), "--metric", "trms",
                               "--dump", str(dump))
        assert code == 0
        assert "profile points" in output
        dumps.append(dump)
    merged = tmp_path / "merged.profile"
    code, output = run_cli("merge", "-o", str(merged), *map(str, dumps))
    assert code == 0
    assert "merged profile of 2 run(s)" in output
    assert merged.exists()
    code, output = run_cli("fit", str(merged), "search")
    assert code == 0
    assert "search:" in output and "R^2" in output


def test_merge_rejects_non_profile(tmp_path):
    bogus = tmp_path / "bogus.profile"
    bogus.write_text("hello\n")
    code, output = run_cli("merge", "-o", str(tmp_path / "out"), str(bogus))
    assert code == 2
    assert "error" in output


def test_analyze_both_metrics_match_online(tmp_path):
    """Both reports of one ``analyze`` equal the online profilers'
    replay of the same trace."""
    from repro.core import EventBus, RmsProfiler, TrmsProfiler, replay
    from repro.farm import read_binary_trace
    from repro.reporting import render_report

    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "2", "--scale", "0.5")
    code, output = run_cli("analyze", str(trace), "--stats")
    assert code == 0
    with open(trace, "rb") as stream:
        events = read_binary_trace(stream)
    rms, trms = RmsProfiler(), TrmsProfiler()
    replay(events, EventBus([rms, trms]))
    assert render_report(rms.db, title=f"rms profile of {trace}") in output
    assert render_report(trms.db, title=f"trms profile of {trace}") in output


def test_profile_html_report(tmp_path):
    html_file = tmp_path / "report.html"
    code, output = run_cli("profile", "376.kdtree", "--threads", "2",
                           "--html", str(html_file))
    assert code == 0
    content = html_file.read_text()
    assert content.startswith("<!DOCTYPE html>")
    assert "search" in content


def test_analyze_with_telemetry_writes_log_and_identical_profile(tmp_path):
    from repro.telemetry import TelemetryRun

    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    dump_without = tmp_path / "without.profile"
    code, _ = run_cli("analyze", str(trace), "--metric", "both",
                      "--dump", str(dump_without))
    assert code == 0
    dump_with = tmp_path / "with.profile"
    tele_dir = tmp_path / "tele"
    code, output = run_cli("analyze", str(trace), "--metric", "both",
                           "--dump", str(dump_with),
                           "--telemetry", str(tele_dir))
    assert code == 0
    assert "telemetry written to" in output
    # telemetry observes, never perturbs: bit-identical profile dump
    assert dump_with.read_bytes() == dump_without.read_bytes()
    run = TelemetryRun.load(str(tele_dir))
    assert len(run.spans_named("analyze.decode")) == 1
    kernels = run.spans_named("analyze.kernel")
    assert sorted(span["attrs"]["metric"] for span in kernels) == ["rms", "trms"]
    assert run.counter_value("farm.kernel.events", metric="rms") == \
        run.counter_value("farm.trace_events") > 0


def test_stats_renders_dashboard_and_html(tmp_path):
    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    tele_dir = tmp_path / "tele"
    run_cli("analyze", str(trace), "--metric", "trms",
            "--telemetry", str(tele_dir))
    html_file = tmp_path / "dash.html"
    code, output = run_cli("stats", str(tele_dir), "--html", str(html_file))
    assert code == 0
    assert "span tree" in output
    assert "analyze.kernel" in output
    assert html_file.read_text().startswith("<!DOCTYPE html>")


def test_stats_renders_log_with_legacy_heartbeats(tmp_path):
    """Logs written while analysis still ran on worker processes carry
    ``heartbeat`` records; they still load and render, minus those."""
    import json

    tele_dir = tmp_path / "tele"
    tele_dir.mkdir()
    records = [
        {"type": "meta", "version": 1, "epoch": 0.0, "pid": 1, "argv": []},
        {"type": "heartbeat", "shard": 0, "phase": "analyze", "events": 500,
         "rss_kb": 2048, "pid": 2, "wall": 0.01},
        {"type": "span", "name": "analyze.pool", "id": 1, "parent": None,
         "start": 0.0, "wall": 0.02, "cpu": 0.01, "ok": True},
        {"type": "heartbeat", "shard": 0, "phase": "done", "events": 900,
         "rss_kb": 2048, "pid": 2, "wall": 0.02},
        {"type": "metrics", "metrics": []},
    ]
    (tele_dir / "telemetry.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records))
    html_file = tmp_path / "dash.html"
    code, output = run_cli("stats", str(tele_dir), "--html", str(html_file))
    assert code == 0
    assert "analyze.pool" in output
    assert "heartbeat" not in output
    html = html_file.read_text()
    assert "analyze.pool" in html and "heartbeat" not in html.lower()


def test_stats_rejects_missing_run(tmp_path):
    code, output = run_cli("stats", str(tmp_path / "nope"))
    assert code == 2
    assert "error" in output


def test_overhead_command_reports_slowdowns():
    code, output = run_cli("overhead", "352.nab", "--threads", "2",
                           "--scale", "0.4", "--repeats", "1",
                           "--tools", "aprof-rms,aprof-trms")
    assert code == 0
    assert "native" in output and "aprof-trms" in output
    assert "slowdown" in output


def test_overhead_unknown_benchmark():
    code, output = run_cli("overhead", "999.nothing")
    assert code == 2
    assert "error" in output


def test_record_with_telemetry_counts_events(tmp_path):
    from repro.telemetry import TelemetryRun

    trace = tmp_path / "run.rpt2"
    tele_dir = tmp_path / "tele"
    code, output = run_cli("record", "358.botsalgn", str(trace),
                           "--threads", "2", "--scale", "0.5",
                           "--telemetry", str(tele_dir))
    assert code == 0
    run = TelemetryRun.load(str(tele_dir))
    events = int(output.split("recorded ")[1].split(" events")[0])
    assert run.counter_value("record.events") == events
    assert run.spans_named("record")[0]["attrs"]["events"] == events
