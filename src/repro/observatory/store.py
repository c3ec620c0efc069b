"""The profile-history store: dict indexes over an append-only log.

One profiling run is one observation of the system's cost functions;
the observatory keeps a *history* of them so growth-rate drift across
commits becomes visible (see :mod:`repro.observatory.drift`).  Storage
is split along the classic WAL/index line:

* ``history.jsonl`` — the durable medium: one self-describing JSON
  record per ingested run, append-only and crash-tolerant exactly like
  ``telemetry.jsonl`` (a truncated trailing line is ignored).
* in-memory indexes — the live view, rebuilt from the log at open:
  ``run_id → seq``, ``seq → RunInfo``, ``seq → [CurveRow]`` and
  ``routine → [CurveRow]``.  Raw plot points and metrics are read
  straight from the replayed :class:`RunRecord` of a run, so every
  value reads back exactly as it was ingested.

``seq`` is the ingest ordinal; run ordering everywhere else is by
``(timestamp, seq)``.  A run carries one fitted curve per fittable
routine — the model name plus its ``a``/``b`` coefficients
(``cost ≈ a·g(n) + b``), so predicted costs at any size can be
recomputed without refitting — and the free power-law exponent for the
dashboard sparklines.  Its raw points are the worst-case cost plot of
the top-K routines by total cost.
"""

from __future__ import annotations

import contextlib
import json
import os
from datetime import datetime, timezone
from typing import Dict, List, NamedTuple, Optional, Tuple

try:                                    # POSIX advisory file locks
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..curvefit.models import model_by_name

__all__ = [
    "STORE_SCHEMA",
    "HISTORY_FILENAME",
    "LOCK_FILENAME",
    "CurveRecord",
    "RunRecord",
    "RunInfo",
    "CurveRow",
    "ObservatoryStore",
]

STORE_SCHEMA = "repro-observatory/1"
HISTORY_FILENAME = "history.jsonl"
#: advisory lock serialising appends against gc compaction (see
#: :meth:`ObservatoryStore._locked`)
LOCK_FILENAME = "history.lock"

def _parse_ts(timestamp: Optional[str]) -> int:
    """ISO-8601 → unix seconds (0 when absent or unparseable)."""
    if not timestamp:
        return 0
    try:
        parsed = datetime.fromisoformat(str(timestamp).replace("Z", "+00:00"))
    except ValueError:
        return 0
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return int(parsed.timestamp())


class CurveRecord(NamedTuple):
    """One routine's fitted curve in one run (ingest-side, strings/floats)."""

    routine: str
    model: str            #: growth-class name from curvefit.selection
    a: float
    b: float
    r2: float
    points: int           #: distinct plot points the fit saw
    max_size: int         #: largest input size observed
    exponent: Optional[float]   #: free power-law exponent, if fittable


class RunRecord(NamedTuple):
    """One ingested run, as appended to ``history.jsonl``."""

    run_id: str
    git_sha: str
    timestamp: str        #: ISO-8601
    scale: float
    source: str           #: profile | farm | telemetry | bench
    events: int
    metrics: Dict[str, float]
    curves: List[CurveRecord]
    #: routine -> raw worst-case plot ``[(size, cost), …]`` (top-K only)
    points: Dict[str, List[Tuple[int, int]]]


class RunInfo(NamedTuple):
    """One run as read back from the store."""

    seq: int
    run_id: str
    git_sha: str
    timestamp: int        #: unix seconds
    scale: float
    source: str
    routines: int
    events: int


class CurveRow(NamedTuple):
    """One fitted curve of one run as read back from the store."""

    run_seq: int
    routine: str
    model: str
    a: float
    b: float
    r2: float
    points: int
    max_size: int
    exponent: Optional[float]

    @property
    def order(self) -> int:
        """Rank of the growth class inside the default model family."""
        return model_by_name(self.model).order

    def predict(self, n: float) -> float:
        """Predicted cost at input size ``n`` from the stored coefficients."""
        return model_by_name(self.model).evaluate(n, self.a, self.b)


class ObservatoryStore:
    """Persistent run history over dict indexes (see module docstring).

    Usage::

        with ObservatoryStore(directory) as store:
            store.add_run(record)
            for info in store.runs(): ...
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, HISTORY_FILENAME)
        self._run_seq: Dict[str, int] = {}     # run_id -> seq ordinal
        self._records: List[RunRecord] = []    # replayed log, in seq order
        self._infos: List[RunInfo] = []        # seq -> RunInfo
        self._curves: List[List[CurveRow]] = []            # seq -> curves
        self._by_routine: Dict[str, List[CurveRow]] = {}   # routine -> curves
        self._rebuild(self._replay())

    # -- log ---------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        """Hold the store's advisory file lock (``history.lock``).

        ``gc`` swaps ``history.jsonl`` out from under concurrent
        writers (atomic-replace compaction); an append racing the swap
        would land on the *old* inode and be lost, and a reader could
        observe half-rebuilt indexes.  Every append and the whole gc
        critical section therefore take an exclusive ``flock`` on a
        sidecar lock file — advisory (cooperating processes only), so
        plain reads of the JSONL stay lock-free.  On platforms without
        ``fcntl`` the lock degrades to a no-op.
        """
        if fcntl is None:               # pragma: no cover - non-POSIX
            yield
            return
        with open(os.path.join(self.root, LOCK_FILENAME), "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _replay(self) -> List[RunRecord]:
        """The log's runs in seq order, each at its newest version."""
        if not os.path.exists(self.path):
            with open(self.path, "w", encoding="utf-8") as stream:
                stream.write(json.dumps({"type": "meta", "schema": STORE_SCHEMA}) + "\n")
            return []
        # Resolve supersessions before building the indexes: a streaming
        # run appends one log record per checkpoint, all sharing one
        # run_id, and only the newest version may be materialised (at
        # its original position — a stream keeps its place in history).
        resolved: List[RunRecord] = []
        index: Dict[str, int] = {}
        with open(self.path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue    # truncated trailing line (crash mid-append)
                if record.get("type") != "run":
                    continue
                run = _record_from_json(record)
                seq = index.get(run.run_id)
                if seq is None:
                    index[run.run_id] = len(resolved)
                    resolved.append(run)
                elif record.get("supersede"):
                    resolved[seq] = run
                # duplicate non-superseding append: first write wins,
                # matching add_run's idempotency
        return resolved

    def _append(self, record: RunRecord, supersede: bool = False) -> None:
        payload = _record_to_json(record)
        if supersede:
            payload["supersede"] = True
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        with self._locked():
            with open(self.path, "a+b") as stream:
                end = stream.seek(0, os.SEEK_END)
                if end:
                    stream.seek(end - 1)
                    if stream.read(1) != b"\n":
                        # a crash tore the last line: start a fresh one,
                        # or replay would drop this run with the fragment
                        line = b"\n" + line
                stream.write(line)
                stream.flush()
                os.fsync(stream.fileno())

    # -- writes ------------------------------------------------------------

    def has_run(self, run_id: str) -> bool:
        return run_id in self._run_seq

    def add_run(self, record: RunRecord, supersede: bool = False) -> bool:
        """Ingest one run; False (and no effect) when run_id is present.

        Idempotency is by ``run_id`` alone — re-ingesting the same dump
        (or a re-upload of the same envelope) is a no-op.

        ``supersede=True`` is the streaming-checkpoint contract: a
        known ``run_id`` is *replaced in place* (same position in run
        history — later checkpoints of one run are not separate runs)
        and the replacement is appended to the log with a
        ``supersede`` marker so replay converges to the newest
        version.  Re-ingesting a byte-identical checkpoint stays a
        no-op, keeping superseding ingestion idempotent too.
        """
        if self.has_run(record.run_id):
            if not supersede:
                return False
            seq = self._run_seq[record.run_id]
            if self._records[seq] == record:
                return False    # identical checkpoint re-ingested
            self._append(record, supersede=True)
            records = list(self._records)
            records[seq] = record
            self._rebuild(records)
            return True
        self._append(record, supersede=supersede)
        self._apply(record)
        return True

    def _rebuild(self, records: List[RunRecord]) -> None:
        """Re-build the indexes from an explicit record list."""
        for index in (self._run_seq, self._records, self._infos,
                      self._curves, self._by_routine):
            index.clear()
        for record in records:
            self._apply(record)

    def _apply(self, record: RunRecord) -> None:
        seq = len(self._records)
        self._records.append(record)
        self._run_seq[record.run_id] = seq
        self._infos.append(RunInfo(
            seq=seq,
            run_id=record.run_id,
            git_sha=record.git_sha or "",
            timestamp=_parse_ts(record.timestamp),
            scale=float(record.scale or 0.0),
            source=record.source or "",
            routines=len({curve.routine for curve in record.curves} | set(record.points)),
            events=int(record.events or 0),
        ))
        curves = [
            CurveRow(
                run_seq=seq,
                routine=curve.routine,
                model=curve.model,
                a=float(curve.a),
                b=float(curve.b),
                r2=float(curve.r2),
                points=int(curve.points),
                max_size=int(curve.max_size),
                exponent=None if curve.exponent is None else float(curve.exponent),
            )
            for curve in record.curves
        ]
        self._curves.append(curves)
        for curve in curves:
            self._by_routine.setdefault(curve.routine, []).append(curve)

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def runs(self) -> List[RunInfo]:
        """Every run, ordered by (timestamp, ingest ordinal)."""
        return sorted(self._infos, key=lambda info: (info.timestamp, info.seq))

    def run_order(self) -> Dict[int, int]:
        """Map run seq -> position in the (timestamp, seq) ordering."""
        return {info.seq: position for position, info in enumerate(self.runs())}

    def routines(self) -> List[str]:
        """Sorted names of every routine with at least one curve row."""
        return sorted(self._by_routine)

    def curve_trajectory(self, routine: str) -> List[CurveRow]:
        """The routine's fitted curves across runs, in run order."""
        order = self.run_order()
        return sorted(self._by_routine.get(routine, ()),
                      key=lambda curve: order[curve.run_seq])

    def curves_for_run(self, seq: int) -> List[CurveRow]:
        return list(self._curves[seq]) if 0 <= seq < len(self) else []

    def points_for(self, seq: int, routine: str) -> List[Tuple[int, int]]:
        """Raw worst-case plot of one routine in one run (top-K only)."""
        if not 0 <= seq < len(self):
            return []
        plot = self._records[seq].points.get(routine, ())
        return sorted((int(size), int(cost)) for size, cost in plot)

    def metrics_for(self, seq: int) -> Dict[str, float]:
        if not 0 <= seq < len(self):
            return {}
        return {name: float(value)
                for name, value in self._records[seq].metrics.items()}

    # -- maintenance -------------------------------------------------------

    def gc(self, keep: int) -> int:
        """Keep only the newest ``keep`` runs; returns how many were dropped.

        Compacts ``history.jsonl`` (atomic replace) and rebuilds the
        indexes from the survivors.  The whole critical section holds
        the store's advisory lock, so a concurrent ingest (another
        cooperating process, or the profiling service's workers) can
        never append to the about-to-be-replaced log or observe
        half-rebuilt indexes.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        with self._locked():
            ordered = self.runs()
            victims = ordered[:-keep] if keep else ordered
            if not victims:
                return 0
            victim_seqs = {info.seq for info in victims}
            survivors = [record for seq, record in enumerate(self._records)
                         if seq not in victim_seqs]
            scratch = self.path + ".compact"
            with open(scratch, "w", encoding="utf-8") as stream:
                stream.write(json.dumps({"type": "meta", "schema": STORE_SCHEMA}) + "\n")
                for record in survivors:
                    stream.write(json.dumps(_record_to_json(record), sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(scratch, self.path)
            self._rebuild(survivors)
        return len(victims)

    def close(self) -> None:
        """Nothing to release: the log is already durable."""

    def __enter__(self) -> "ObservatoryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- log (de)serialisation --------------------------------------------------


def _record_to_json(record: RunRecord) -> Dict:
    return {
        "type": "run",
        "schema": STORE_SCHEMA,
        "run_id": record.run_id,
        "git_sha": record.git_sha,
        "timestamp": record.timestamp,
        "scale": record.scale,
        "source": record.source,
        "events": record.events,
        "metrics": dict(record.metrics),
        "curves": [
            {
                "routine": curve.routine,
                "model": curve.model,
                "a": curve.a,
                "b": curve.b,
                "r2": curve.r2,
                "points": curve.points,
                "max_size": curve.max_size,
                "exponent": curve.exponent,
            }
            for curve in record.curves
        ],
        "points": {routine: [[size, cost] for size, cost in plot]
                   for routine, plot in record.points.items()},
    }


def _record_from_json(payload: Dict) -> RunRecord:
    curves = [
        CurveRecord(
            routine=str(curve["routine"]),
            model=str(curve["model"]),
            a=float(curve["a"]),
            b=float(curve["b"]),
            r2=float(curve["r2"]),
            points=int(curve["points"]),
            max_size=int(curve["max_size"]),
            exponent=None if curve.get("exponent") is None
            else float(curve["exponent"]),
        )
        for curve in payload.get("curves", [])
    ]
    points = {
        str(routine): [(int(size), int(cost)) for size, cost in plot]
        for routine, plot in (payload.get("points") or {}).items()
    }
    metrics = {str(name): float(value)
               for name, value in (payload.get("metrics") or {}).items()
               if isinstance(value, (int, float))}
    return RunRecord(
        run_id=str(payload["run_id"]),
        git_sha=str(payload.get("git_sha") or ""),
        timestamp=str(payload.get("timestamp") or ""),
        scale=float(payload.get("scale") or 0.0),
        source=str(payload.get("source") or ""),
        events=int(payload.get("events") or 0),
        metrics=metrics,
        curves=curves,
        points=points,
    )
