"""Profile observatory: persistent run history and growth-rate drift.

A single input-sensitive profile names each routine's cost *function*;
two profiles diff into asymptotic regressions
(:mod:`repro.reporting.diffing`); this package watches a *sequence* of
runs, which is what an operator of a long-lived system actually has:

* :mod:`repro.observatory.store` — the persistent history store: an
  append-only ``history.jsonl`` replayed into in-memory indexes
  (runs, fitted curves, raw plot points, run metrics);
* :mod:`repro.observatory.ingest` — turns ``repro-profile 1`` dumps,
  TSV point dumps, ``telemetry.jsonl`` runs and
  ``repro-bench/1`` envelopes into store records, idempotently by
  run id;
* :mod:`repro.observatory.drift` — per-routine growth-class
  trajectories, changepoint flagging and severity-ranked alerts;
* :mod:`repro.observatory.dashboards` — the ASCII and HTML dashboards
  behind ``repro observe report``.

CLI: ``repro observe {ingest,report,alerts,gc}`` (see
docs/OBSERVATORY.md).  The observatory only ever *reads* pipeline
artefacts — profiles stay bit-identical whether it is enabled or
absent.
"""

from .dashboards import (
    render_alert_feed,
    render_observatory_html,
    render_observatory_report,
)
from .drift import Changepoint, DriftAlert, RoutineTrajectory, detect_drift, trajectories
from .ingest import (
    IngestResult,
    artefact_suffix,
    ingest_bytes,
    ingest_checkpoint,
    ingest_path,
    ingest_stream_dump,
    record_from_checkpoint,
    record_from_envelope,
    record_from_profile_db,
    record_from_telemetry,
)
from .store import (
    HISTORY_FILENAME,
    LOCK_FILENAME,
    STORE_SCHEMA,
    CurveRecord,
    CurveRow,
    ObservatoryStore,
    RunInfo,
    RunRecord,
)

__all__ = [
    "render_alert_feed",
    "render_observatory_html",
    "render_observatory_report",
    "Changepoint",
    "DriftAlert",
    "RoutineTrajectory",
    "detect_drift",
    "trajectories",
    "IngestResult",
    "artefact_suffix",
    "ingest_bytes",
    "ingest_checkpoint",
    "ingest_path",
    "ingest_stream_dump",
    "record_from_checkpoint",
    "record_from_envelope",
    "record_from_profile_db",
    "record_from_telemetry",
    "HISTORY_FILENAME",
    "LOCK_FILENAME",
    "STORE_SCHEMA",
    "CurveRecord",
    "CurveRow",
    "ObservatoryStore",
    "RunInfo",
    "RunRecord",
]
