"""The telemetry event log: JSONL writing, reading, and run loading.

A telemetry *run* is one file, ``telemetry.jsonl``, inside a run
directory.  One JSON object per line, every record carrying a ``type``:

* ``meta`` — first line: format version, epoch, pid, argv;
* ``span`` — one completed span: name, ids, start offset, wall/CPU
  seconds, attributes, ok/error status;
* ``event`` — point-in-time annotations;
* ``metrics`` — the registry snapshot, written when the run closes.

Records of any other type (such as the ``heartbeat`` records of older
logs) are kept in :attr:`TelemetryRun.records` and otherwise ignored.

Appending lines is crash-tolerant: a run that dies mid-flight leaves a
readable prefix (the reader skips a torn last line), unlike a single
JSON document.  The sink is lock-guarded and **pid-fenced**: a file
handle inherited across ``fork`` into a child process silently refuses
to write, so only the process that opened the log appends to it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterator, List, Optional

__all__ = [
    "TELEMETRY_FILENAME",
    "JsonlSink",
    "iter_records",
    "resolve_log_path",
    "TelemetryRun",
]

TELEMETRY_FILENAME = "telemetry.jsonl"


def resolve_log_path(path: str) -> str:
    """Map a run directory to its log file; pass explicit files through.

    Anything that is not an explicit ``.jsonl`` file is a run directory
    — including one that does not exist yet (``--telemetry DIR`` must
    create ``DIR/telemetry.jsonl``, not a file named ``DIR``).
    """
    if path.endswith(".jsonl") and not os.path.isdir(path):
        return path
    return os.path.join(path, TELEMETRY_FILENAME)


class JsonlSink:
    """Serialized JSONL writer for one telemetry run."""

    def __init__(self, path: str):
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._stream = open(path, "w", encoding="utf-8")

    def write(self, record: Dict) -> None:
        if os.getpid() != self._pid:  # forked child: not our log
            return
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._stream.closed:
                return
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if not self._stream.closed and os.getpid() == self._pid:
                self._stream.close()


def iter_records(path: str) -> Iterator[Dict]:
    """Yield every well-formed record of a telemetry log.

    A torn final line (interrupted run) is skipped rather than raised:
    partial observability of a crashed run is the whole point.
    """
    with open(resolve_log_path(path), "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


class TelemetryRun:
    """One loaded telemetry log, indexed for rendering and assertions."""

    def __init__(self, records: List[Dict], path: Optional[str] = None):
        self.path = path
        self.records = records
        self.meta: Dict = {}
        self.spans: List[Dict] = []
        self.events: List[Dict] = []
        self.metrics: List[Dict] = []
        for record in records:
            kind = record.get("type")
            if kind == "meta":
                self.meta = record
            elif kind == "span":
                self.spans.append(record)
            elif kind == "event":
                self.events.append(record)
            elif kind == "metrics":
                self.metrics = record.get("metrics", [])

    @classmethod
    def load(cls, path: str) -> "TelemetryRun":
        resolved = resolve_log_path(path)
        return cls(list(iter_records(resolved)), path=resolved)

    # -- span access --------------------------------------------------------

    def span_names(self) -> List[str]:
        return sorted({span["name"] for span in self.spans})

    def spans_named(self, name: str) -> List[Dict]:
        return [span for span in self.spans if span["name"] == name]

    def children_of(self, span_id: Optional[int]) -> List[Dict]:
        return [span for span in self.spans if span.get("parent") == span_id]

    def span_totals(self) -> Dict[str, Dict]:
        """Per span name: call count, total wall, total CPU, max wall."""
        totals: Dict[str, Dict] = {}
        for span in self.spans:
            entry = totals.setdefault(
                span["name"], {"calls": 0, "wall": 0.0, "cpu": 0.0, "max_wall": 0.0})
            entry["calls"] += 1
            entry["wall"] += span.get("wall", 0.0)
            entry["cpu"] += span.get("cpu", 0.0)
            entry["max_wall"] = max(entry["max_wall"], span.get("wall", 0.0))
        return totals

    # -- metrics access -----------------------------------------------------

    def find_metrics(self, name: str, kind: Optional[str] = None, **labels) -> List[Dict]:
        wanted = set(labels.items())
        found = []
        for entry in self.metrics:
            if entry.get("name") != name:
                continue
            if kind is not None and entry.get("kind") != kind:
                continue
            if not wanted <= set(entry.get("labels", {}).items()):
                continue
            found.append(entry)
        return found

    def counter_value(self, name: str, **labels) -> int:
        return sum(entry["value"]
                   for entry in self.find_metrics(name, kind="counter", **labels))
