"""Self-overhead accounting: measure, derive rows, render from data alone."""

import pytest

from repro.telemetry import Telemetry, TelemetryRun
from repro.telemetry.overhead import (
    DEFAULT_TOOLS,
    measure_overhead,
    overhead_rows,
    render_overhead_report,
)


@pytest.fixture(scope="module")
def metrics():
    tele = measure_overhead("352.nab", threads=2, scale=0.4,
                            tools=("nulgrind", "aprof-rms", "aprof-trms"),
                            repeats=2)
    return tele.registry.snapshot()


def test_measure_covers_every_configuration(metrics):
    tools = {entry["labels"]["tool"]
             for entry in metrics if entry["name"] == "overhead.runs"}
    assert tools == {"native", *DEFAULT_TOOLS}
    for entry in metrics:
        if entry["name"] == "overhead.runs":
            assert entry["value"] == 2


def test_overhead_rows_shape(metrics):
    rows = overhead_rows(metrics)
    by_tool = {row[0]: row for row in rows}
    assert set(by_tool) == {"native", *DEFAULT_TOOLS}
    assert by_tool["native"][2] == pytest.approx(1.0)
    for tool, seconds, slowdown, space, blocks in rows:
        assert seconds > 0 and slowdown > 0
        assert blocks == by_tool["native"][4]  # same work under every tool
    # the profilers keep shadow state, the native run has none
    assert by_tool["aprof-trms"][3] > 0
    assert by_tool["native"][3] == 0


def test_render_report_from_snapshot_alone(metrics):
    report = render_overhead_report(metrics)
    assert "native" in report and "aprof-trms" in report
    assert "slowdown" in report
    assert "Table 1" in report  # the trms-vs-rms comparison line


def test_render_report_without_measurements():
    assert "no overhead measurements" in render_overhead_report([])


def test_runs_interleave_configurations(tmp_path):
    # every repeat runs native and each tool once, in turn, so a slow
    # stretch of the host cannot land on one configuration only
    tele = Telemetry(str(tmp_path))
    measure_overhead("352.nab", threads=1, scale=0.2,
                     tools=("nulgrind", "aprof-rms"), repeats=3,
                     telemetry=tele)
    tele.close()
    runs = TelemetryRun.load(str(tmp_path)).spans_named("overhead.run")
    order = [(span["attrs"]["repeat"], span["attrs"]["tool"])
             for span in sorted(runs, key=lambda span: span["id"])]
    assert order == [(repeat, tool) for repeat in range(3)
                     for tool in ("native", "nulgrind", "aprof-rms")]
