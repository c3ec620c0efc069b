"""Farm worker: analyse one shard of a recorded trace, in-process.

``run_shard`` is the function the engine ships to pool processes (it
must stay module-level and its task/result types picklable).  A worker
is deliberately self-sufficient: it opens the trace file itself, decodes
only its shard's chunk subset, and feeds it in trace order to one
:class:`~repro.core.flatkernel.FlatAnalyzer` for its assigned threads
and metric.  The subset includes every write-bearing chunk, so a TRMS
worker rebuilds the global latest-write table *locally*.  Nothing
mutable crosses the process boundary in either direction — the price is
that every worker re-reads the write chunks, the payoff is that workers
share no state and the result is exact by construction.

**Heartbeats.**  A worker is also observable while it runs: given a
``heartbeat_path``, it appends one JSON line every
``heartbeat_events`` decoded events (and at every phase change) with
its phase (``decode`` / ``analyze``), events processed, peak RSS and
wall time — the coordinator tails these files to expose live progress
and to attribute per-shard stalls.  Phase spans (wall + CPU) travel the
same channel.  Heartbeats are fire-and-forget: any failure to write one
is swallowed, because observability must never outrank the result.

Fault injection (for the retry/fallback tests) is part of the task:
a ``fault`` field can make the worker die abruptly, raise, or hang,
before it touches the trace.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, NamedTuple, Optional, Tuple

from ..core.flatkernel import FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from .binfmt import decode_chunk_columns, read_trace_meta

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["ShardTask", "WorkerResult", "run_shard", "DEFAULT_HEARTBEAT_EVENTS"]

#: decoded events between two heartbeats (plus one per phase change)
DEFAULT_HEARTBEAT_EVENTS = 25000


class ShardTask(NamedTuple):
    """Everything a worker needs, picklable and immutable."""

    trace_path: str
    shard_id: int
    threads: Tuple[int, ...]
    chunk_indices: Tuple[int, ...]
    context_sensitive: bool = False
    keep_activations: bool = False
    #: test-only fault injection: ``("crash-once", sentinel_path)``,
    #: ``("crash-always",)``, ``("error",)``, or ``("hang", seconds)``
    fault: Optional[Tuple] = None
    #: JSONL file this worker appends heartbeat/span records to
    heartbeat_path: Optional[str] = None
    heartbeat_events: int = DEFAULT_HEARTBEAT_EVENTS
    #: input-size metric: "trms" or "rms"
    metric: str = "trms"


class WorkerResult(NamedTuple):
    shard_id: int
    db: ProfileDatabase
    events_decoded: int
    seconds: float
    pid: int
    decode_seconds: float = 0.0
    analyze_seconds: float = 0.0
    max_rss_kb: int = 0
    heartbeats: int = 0


def _max_rss_kb() -> int:
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class _Heart:
    """Best-effort heartbeat/span appender for one shard."""

    def __init__(self, task: ShardTask, started: float):
        self.task = task
        self.started = started
        self.beats = 0
        self._stream = None
        if task.heartbeat_path is not None:
            try:
                self._stream = open(task.heartbeat_path, "a", encoding="utf-8")
            except OSError:
                self._stream = None

    def _write(self, record: Dict) -> None:
        if self._stream is None:
            return
        try:
            self._stream.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._stream.flush()
        except (OSError, ValueError):
            self._stream = None

    def beat(self, phase: str, events: int) -> None:
        self.beats += 1
        self._write({
            "type": "heartbeat", "shard": self.task.shard_id, "phase": phase,
            "events": events, "rss_kb": _max_rss_kb(), "pid": os.getpid(),
            "wall": round(time.perf_counter() - self.started, 6),
        })

    def span(self, name: str, wall: float, cpu: float, **attrs) -> None:
        self._write({
            "type": "span", "name": name, "shard": self.task.shard_id,
            "wall": round(wall, 6), "cpu": round(cpu, 6), "ok": True,
            "attrs": attrs,
        })

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None


def _inject_fault(fault: Optional[Tuple]) -> None:
    if fault is None:
        return
    kind = fault[0]
    if kind == "crash-once":
        sentinel = fault[1]
        if not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            os._exit(3)
    elif kind == "crash-always":
        os._exit(3)
    elif kind == "error":
        raise RuntimeError("injected worker error")
    elif kind == "hang":
        time.sleep(fault[1])
    else:
        raise ValueError(f"unknown fault {fault!r}")


def run_shard(task: ShardTask) -> WorkerResult:
    """Decode the shard's chunks, analyse its threads, return the profiles.

    Chunks are decoded whole into :class:`~repro.farm.binfmt.ChunkColumns`
    and fed, in trace order, to one
    :class:`~repro.core.flatkernel.FlatAnalyzer` covering all assigned
    threads for ``task.metric`` — decode and analysis interleave per
    chunk, so ``decode_seconds`` is purely the columnar batch decode.
    """
    _inject_fault(task.fault)
    started = time.perf_counter()
    cpu0 = time.process_time()
    heart = _Heart(task, started)
    heart.beat("decode", 0)
    beat_every = max(1, task.heartbeat_events)
    db = ProfileDatabase(keep_activations=task.keep_activations)
    decoded = 0
    decode_seconds = 0.0
    next_beat = beat_every

    with open(task.trace_path, "rb") as stream:
        meta = read_trace_meta(stream)
        analyzer = FlatAnalyzer(task.threads, meta.names, db,
                                context_sensitive=task.context_sensitive,
                                metric=task.metric)
        for chunk_index in sorted(task.chunk_indices):
            decode_started = time.perf_counter()
            columns = decode_chunk_columns(stream, meta.chunks[chunk_index])
            decode_seconds += time.perf_counter() - decode_started
            analyzer.feed(columns)
            decoded += columns.events
            if decoded >= next_beat:
                heart.beat("analyze", decoded)
                next_beat = decoded + beat_every
        analyzer.finish()

    seconds = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu0
    analyze_seconds = max(0.0, seconds - decode_seconds)
    heart.span("worker.decode", decode_seconds, min(decode_seconds, cpu_seconds),
               events=decoded, chunks=len(task.chunk_indices), metric=task.metric)
    heart.span("worker.analyze", analyze_seconds,
               max(0.0, cpu_seconds - decode_seconds),
               threads=len(task.threads), metric=task.metric)
    heart.beat("done", decoded)
    heart.close()
    return WorkerResult(task.shard_id, db, decoded, seconds, os.getpid(),
                        decode_seconds, analyze_seconds, _max_rss_kb(),
                        heart.beats)
