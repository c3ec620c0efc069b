"""One-pass offline analysis: trace file in, one profile per metric out.

The paper's analysis is a single latest-access pass over a serialized,
globally ordered event stream, and ``analyze_file`` runs exactly that:

1. a v1 text trace is first converted to a temporary v2 file;
2. the trace meta is read and every chunk is decoded once into columns
   (:func:`~repro.farm.binfmt.decode_chunk_columns`);
3. each decoded chunk feeds one whole-trace
   :class:`~repro.core.flatkernel.FlatAnalyzer` per requested metric, so
   ``metrics=("rms", "trms")`` decodes the trace once for both.

The result is one :class:`~repro.core.profile_data.ProfileDatabase` per
metric, bit-identical to the online ``RmsProfiler``/``TrmsProfiler``,
plus an :class:`AnalysisStats` record of where the time went.

Observability: conversion is a telemetry span (``analyze.convert``);
decode and each metric's kernel interleave chunk by chunk, so their
summed times are emitted as ``analyze.decode`` and ``analyze.kernel``
(labelled ``metric``) spans after the pass, with the event counters
``farm.trace_events`` and ``farm.kernel.events{metric=…}``.  None of
this touches profile state — the differential tests run with telemetry
on and off and demand bit-identical output.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, NamedTuple, Optional, Sequence

from .. import telemetry
from ..core.flatkernel import METRICS, FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from .binfmt import (
    DEFAULT_CHUNK_EVENTS,
    convert_v1_to_v2,
    decode_chunk_columns,
    is_binary_trace,
    read_trace_meta,
    write_binary_trace,
)

__all__ = ["AnalysisStats", "AnalysisResult", "analyze_file", "analyze_events"]


class AnalysisStats(NamedTuple):
    """Where one analysis pass spent its time (``render_analysis_stats``)."""

    events: int                        #: events in the trace
    chunks: int                        #: chunks decoded (each exactly once)
    decode_seconds: float              #: columnar chunk decode, all chunks
    metric_seconds: Dict[str, float]   #: kernel time per metric, request order


class AnalysisResult(NamedTuple):
    dbs: Dict[str, ProfileDatabase]    #: metric -> profile, request order
    stats: AnalysisStats

    @property
    def db(self) -> ProfileDatabase:
        """The profile of the first (usually the only) requested metric."""
        return next(iter(self.dbs.values()))


def analyze_file(
    path: str,
    metrics: Sequence[str] = ("trms",),
    context_sensitive: bool = False,
    keep_activations: bool = False,
) -> AnalysisResult:
    """Analyse a recorded trace (v1 or v2) for every metric in one pass.

    ``metrics`` names the input-size metrics to compute, ``"rms"``
    and/or ``"trms"``; the differential tests run every benchmark
    through both against the online profilers.
    """
    if not metrics:
        raise ValueError("no metric requested")
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
    tele = telemetry.current()
    started = time.time()
    temp_path: Optional[str] = None
    try:
        if not is_binary_trace(path):
            with tele.span("analyze.convert", source=os.path.basename(path)):
                handle, temp_path = tempfile.mkstemp(suffix=".rpt2")
                with os.fdopen(handle, "wb") as binary, \
                        open(path, "r", encoding="utf-8") as text:
                    convert_v1_to_v2(text, binary)
            trace_path = temp_path
        else:
            trace_path = path

        dbs = {metric: ProfileDatabase(keep_activations=keep_activations)
               for metric in metrics}
        seconds = dict.fromkeys(dbs, 0.0)
        decode_seconds = 0.0
        clock = time.perf_counter
        with open(trace_path, "rb") as stream:
            meta = read_trace_meta(stream)
            analyzers = [
                (metric, FlatAnalyzer(meta.names, db,
                                      context_sensitive=context_sensitive,
                                      metric=metric))
                for metric, db in dbs.items()
            ]
            for chunk in meta.chunks:
                mark = clock()
                columns = decode_chunk_columns(stream, chunk)
                now = clock()
                decode_seconds += now - mark
                for metric, analyzer in analyzers:
                    mark = now
                    analyzer.feed(columns)
                    now = clock()
                    seconds[metric] += now - mark
        for metric, analyzer in analyzers:
            mark = clock()
            analyzer.finish()
            seconds[metric] += clock() - mark
    finally:
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    tele.counter("farm.trace_events").inc(meta.event_count)
    tele.emit_span("analyze.decode", started, decode_seconds,
                   events=meta.event_count, chunks=len(meta.chunks))
    for metric, kernel_seconds in seconds.items():
        tele.counter("farm.kernel.events", metric=metric).inc(meta.event_count)
        tele.emit_span("analyze.kernel", started, kernel_seconds,
                       metric=metric, events=meta.event_count)
    stats = AnalysisStats(meta.event_count, len(meta.chunks),
                          decode_seconds, seconds)
    return AnalysisResult(dbs, stats)


def analyze_events(
    events,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    **kwargs,
) -> AnalysisResult:
    """Analyse an in-memory event stream (spools to a temp v2 file)."""
    handle, path = tempfile.mkstemp(suffix=".rpt2")
    try:
        with os.fdopen(handle, "wb") as stream:
            write_binary_trace(events, stream, chunk_events=chunk_events)
        return analyze_file(path, **kwargs)
    finally:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
