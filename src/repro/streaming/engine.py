"""Incremental analysis engine: the flat kernel fed by the tailer.

Streaming is "merge as you go": the exact associativity of the profile
merge (:mod:`repro.farm.merge`) means a prefix of chunks analysed now
plus the rest analysed later equals the batch run.  Concretely the
engine keeps one whole-trace :class:`~repro.core.flatkernel.FlatAnalyzer`
alive across polls and feeds it sealed
``ChunkColumns`` in trace order, so the final database — after
``finish()`` when the trace seals — is *bit-identical* to
``repro analyze --metric trms`` (the streaming differential suite
compares the dumps byte for byte).

Bounded memory and backpressure: the analyzer's running state is the
same per-thread stacks + latest-access tables the batch kernel keeps —
streaming adds no history.  What *can* grow without bound is the
backlog between writer and reader; the session caps work per poll
(``max_chunks_per_poll``), holds back chunks whose routine names have
not yet arrived through the sidecar (bounded by ``max_held_chunks``,
after which polling pauses — backpressure), and accounts for all of it
(:attr:`StreamingAnalyzer.events_fed`, ``events_behind``, stall
counts) in every checkpoint manifest and the
``streaming.checkpoint_lag_ms`` / ``streaming.events_behind`` gauges.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import List, Optional

from .. import telemetry
from ..core.events import EventKind
from ..core.flatkernel import FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from ..farm.binfmt import ChunkColumns, TruncatedChunk
from .snapshot import CheckpointInfo, SnapshotWriter
from .tailer import DEFAULT_MAX_CHUNKS_PER_POLL, ChunkTailer

__all__ = [
    "StreamingAnalyzer",
    "LiveProfileSession",
    "DEFAULT_CHECKPOINT_EVENTS",
    "stream_id_for",
]

DEFAULT_CHECKPOINT_EVENTS = 65536
_CALL = int(EventKind.CALL)


def stream_id_for(trace_path: str) -> str:
    """A stable stream id for a trace path (stable run ids downstream)."""
    digest = hashlib.sha256(os.path.abspath(trace_path).encode("utf-8"))
    return digest.hexdigest()[:12]


class StreamingAnalyzer:
    """A :class:`FlatAnalyzer` with a growable name table and tallies."""

    def __init__(self, context_sensitive: bool = False):
        self.db = ProfileDatabase()
        self.names: List[str] = []
        self.analyzer = FlatAnalyzer(self.names, self.db,
                                     context_sensitive=context_sensitive)
        self.events_fed = 0
        self.chunks_fed = 0
        self.finished = False

    def extend_names(self, names: List[str]) -> None:
        """Adopt a longer prefix-consistent name table from the tailer."""
        if len(names) > len(self.names):
            self.names.extend(names[len(self.names):])

    def max_call_id(self, columns: ChunkColumns) -> int:
        """Largest routine id the chunk's CALL records reference."""
        worst = -1
        for kind, arg in zip(columns.kinds, columns.args):
            if kind == _CALL and arg > worst:
                worst = arg
        return worst

    def feed(self, columns: ChunkColumns) -> None:
        with telemetry.span("stream.feed", events=columns.events,
                            first_pos=columns.first_pos):
            self.analyzer.feed(columns)
        self.events_fed += columns.events
        self.chunks_fed += 1

    def finish(self) -> ProfileDatabase:
        """Unwind pending activations; the database is now the batch result."""
        if not self.finished:
            self.analyzer.finish()
            self.finished = True
        return self.db


class LiveProfileSession:
    """Tail one growing trace into periodic profile checkpoints.

    Glues tailer → analyzer → snapshot writer.  Drive it with
    :meth:`step` (one poll; returns chunks consumed) and
    :meth:`finalize`, or let :meth:`run` loop until the trace seals.
    Checkpoints are cut every ``checkpoint_events`` fed events or
    ``checkpoint_seconds`` of wall time, whichever comes first, and
    once more — ``closed`` — after the final ``finish()``.
    """

    def __init__(
        self,
        trace_path: str,
        checkpoint_dir: str,
        stream_id: Optional[str] = None,
        checkpoint_events: int = DEFAULT_CHECKPOINT_EVENTS,
        checkpoint_seconds: float = 2.0,
        context_sensitive: bool = False,
        max_chunks_per_poll: int = DEFAULT_MAX_CHUNKS_PER_POLL,
        max_held_chunks: int = 256,
        full_every: int = 8,
    ):
        self.trace_path = trace_path
        self.stream_id = stream_id or stream_id_for(trace_path)
        self.checkpoint_events = checkpoint_events
        self.checkpoint_seconds = checkpoint_seconds
        self.tailer = ChunkTailer(trace_path, max_chunks_per_poll=max_chunks_per_poll)
        self.analyzer = StreamingAnalyzer(context_sensitive=context_sensitive)
        self.snapshots = SnapshotWriter(checkpoint_dir, self.stream_id,
                                        full_every=full_every)
        self.max_held_chunks = max_held_chunks
        self.checkpoints: List[CheckpointInfo] = []
        #: per-checkpoint freshness lag samples (ms) — bench fodder
        self.lag_samples_ms: List[float] = []
        self.hold_stalls = 0
        self.finalized = False
        self._held: List[ChunkColumns] = []
        self._since_checkpoint = 0
        self._oldest_unsnapshotted: Optional[float] = None
        self._last_checkpoint_at = time.perf_counter()
        self._started = time.perf_counter()

    # -- plumbing ----------------------------------------------------------------

    def _feed_ready(self) -> int:
        """Feed held chunks whose names have arrived; returns count fed."""
        fed = 0
        known = len(self.analyzer.names)
        while self._held and self.analyzer.max_call_id(self._held[0]) < known:
            columns = self._held.pop(0)
            self.analyzer.feed(columns)
            fed += 1
            if self._oldest_unsnapshotted is None:
                self._oldest_unsnapshotted = time.perf_counter()
            self._since_checkpoint += columns.events
        return fed

    def step(self) -> int:
        """One poll: tail, resolve names, feed; returns chunks consumed."""
        if len(self._held) >= self.max_held_chunks:
            # Names starved while chunks piled up: stop pulling bytes
            # until the sidecar (or the footer) catches up.
            self.hold_stalls += 1
            self.tailer.refresh_names()
            polled: List[ChunkColumns] = []
        else:
            polled = self.tailer.poll()
        self.analyzer.extend_names(self.tailer.names)
        self._held.extend(polled)
        consumed = self._feed_ready()
        due_events = self._since_checkpoint >= self.checkpoint_events
        due_time = (self._since_checkpoint > 0
                    and time.perf_counter() - self._last_checkpoint_at
                    >= self.checkpoint_seconds)
        if due_events or due_time:
            self.checkpoint()
        return consumed

    def checkpoint(self, closed: bool = False) -> CheckpointInfo:
        """Materialise the current partial profile as the next snapshot."""
        now = time.perf_counter()
        lag_ms = ((now - self._oldest_unsnapshotted) * 1000.0
                  if self._oldest_unsnapshotted is not None else 0.0)
        events_behind = (self.tailer.pending_events_estimate()
                         + sum(held.events for held in self._held))
        elapsed = max(now - self._started, 1e-9)
        events_per_s = self.analyzer.events_fed / elapsed
        with telemetry.span("stream.snapshot", closed=closed) as snap_span:
            info = self.snapshots.emit(
                self.analyzer.db,
                events_analyzed=self.analyzer.events_fed,
                events_behind=events_behind,
                lag_ms=lag_ms,
                events_per_s=events_per_s,
                closed=closed,
                timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
                extra={
                    "trace": os.path.basename(self.trace_path),
                    "stalls": self.tailer.stalls + self.hold_stalls,
                },
            )
            snap_span.set(seq=info.seq, delta=info.delta,
                          bytes=info.bytes_written)
        telemetry.gauge("streaming.checkpoint_lag_ms").set(round(lag_ms, 3))
        telemetry.gauge("streaming.events_behind").set(events_behind)
        self.checkpoints.append(info)
        self.lag_samples_ms.append(lag_ms)
        self._since_checkpoint = 0
        self._oldest_unsnapshotted = None
        self._last_checkpoint_at = now
        return info

    # -- termination -------------------------------------------------------------

    @property
    def drained(self) -> bool:
        return self.tailer.drained and not self._held

    def finalize(self) -> ProfileDatabase:
        """Drain, unwind, and emit the final ``closed`` checkpoint.

        Raises :class:`~repro.farm.binfmt.TruncatedChunk` (after
        checkpointing what was recovered) when the trace never sealed —
        the recoverable-prefix contract.
        """
        if self.finalized:
            return self.analyzer.db
        while True:
            before = self.analyzer.chunks_fed
            self.step()
            if self.drained or self.analyzer.chunks_fed == before:
                break
        if self.drained:
            self.analyzer.finish()
            self.checkpoint(closed=True)
            self.finalized = True
            self.tailer.close()
            return self.analyzer.db
        try:
            self.tailer.finish()   # raises TruncatedChunk with the details
        except TruncatedChunk:
            self.checkpoint(closed=False)   # persist the recovered prefix
            self.tailer.close()
            raise
        # Nothing torn after all (e.g. the trace never materialised):
        # close out with whatever — possibly nothing — was analysed.
        self.analyzer.finish()
        self.checkpoint(closed=True)
        self.finalized = True
        self.tailer.close()
        return self.analyzer.db

    def run(self, poll_interval: float = 0.05,
            timeout: Optional[float] = None) -> ProfileDatabase:
        """Poll until the trace seals and drains, then finalize."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while not (self.tailer.sealed and self.drained):
            consumed = self.step()
            if self.tailer.sealed and self.drained:
                break
            if not consumed:
                if deadline is not None and time.perf_counter() > deadline:
                    break
                time.sleep(poll_interval)
        return self.finalize()
