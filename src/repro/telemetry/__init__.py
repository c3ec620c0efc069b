"""Telemetry: how the profiling pipeline observes *itself*.

The paper's evaluation is a set of meta-measurements (Table 1's
slowdowns, events/second, memory overhead); this package gives the
reproduction the machinery to make such measurements first-class on
every run instead of once per paper:

* :mod:`repro.telemetry.registry` — lock-safe counters, gauges and
  fixed log-bucket histograms, usable from the online profiler and
  the offline analysis alike;
* :mod:`repro.telemetry.spans` — nested span tracing (wall + CPU) and
  the process-wide current telemetry (``configure`` / ``session`` /
  no-op ``NULL`` default);
* :mod:`repro.telemetry.jsonl` — the ``telemetry.jsonl`` event-log
  format, its reader, and :class:`TelemetryRun` (what ``repro stats``
  loads);
* :mod:`repro.telemetry.overhead` — Table-1-style self-overhead runs
  (``repro overhead``), reported from telemetry data alone.

Two contracts, both enforced by tests: telemetry is **zero-cost when
disabled** (the default telemetry is a shared no-op), and telemetry
**never perturbs profiles** — the farm differential suite asserts
bit-identical output with telemetry on and off.  See docs/TELEMETRY.md.
"""

from .jsonl import TELEMETRY_FILENAME, JsonlSink, TelemetryRun, iter_records, resolve_log_path
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .prometheus import render_prometheus
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_bound,
    bucket_counts,
    bucket_index,
    merge_snapshots,
    quantile_from_buckets,
    quantiles_from_buckets,
)
from .spans import (
    NULL,
    NullTelemetry,
    Telemetry,
    configure,
    counter,
    current,
    disable,
    emit_span,
    event,
    gauge,
    histogram,
    new_trace_id,
    session,
    span,
    trace,
    trace_carrier,
)

__all__ = [
    "TELEMETRY_FILENAME",
    "JsonlSink",
    "TelemetryRun",
    "iter_records",
    "resolve_log_path",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "bucket_bound",
    "bucket_counts",
    "bucket_index",
    "merge_snapshots",
    "quantile_from_buckets",
    "quantiles_from_buckets",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "configure",
    "counter",
    "current",
    "disable",
    "emit_span",
    "event",
    "gauge",
    "histogram",
    "new_trace_id",
    "session",
    "span",
    "trace",
    "trace_carrier",
]
