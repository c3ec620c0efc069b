"""Farm orchestration: trace file in, merged profile database out.

``analyze_file`` drives the whole pipeline:

1. ensure the trace is format v2 (v1 text traces are converted to a
   temporary binary file first — the farm only plans over chunk
   indices);
2. plan shards from the chunk index (:mod:`repro.farm.shards`);
3. run :func:`repro.farm.worker.run_shard` for every shard — on a
   ``concurrent.futures`` process pool when ``jobs > 1``, inline
   otherwise;
4. merge the per-shard databases (:mod:`repro.farm.merge`) into one
   profile, bit-identical to the online ``TrmsProfiler`` (or
   ``RmsProfiler``, with ``metric="rms"``).

Failure policy (the part a benchmark never shows): every shard gets up
to ``1 + retries`` pool attempts with a per-shard ``timeout``; a worker
that crashes, raises, or times out is resubmitted on a fresh pool, and
a shard that exhausts its attempts — or a pool that cannot be created
at all — degrades to inline execution in the coordinator.  The farm
therefore *always* returns the exact result; parallelism is strictly a
performance property.

Observability: the run is traced end to end.  Every phase (convert,
plan, pool, inline fallback, merge) is a telemetry span; workers
append heartbeats and phase spans to per-shard files the coordinator
tails while it waits — live progress via the ``progress`` callback,
worker spans re-emitted into the session's event log.  The farm also
keeps its own always-on :class:`~repro.telemetry.MetricsRegistry`
(mirrored into the session telemetry when one is live): per-shard
retries, timeouts and fallbacks are *counted there* and surface in
:class:`FarmStats` for ``render_farm_stats``.  None of this touches
profile state — the differential tests run with telemetry on and off
and demand bit-identical output.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import telemetry
from ..core.flatkernel import METRICS
from ..core.profile_data import ProfileDatabase
from ..telemetry import MetricsRegistry
from .binfmt import DEFAULT_CHUNK_EVENTS, convert_v1_to_v2, is_binary_trace, read_trace_meta
from .merge import merge_databases
from .shards import ShardPlan, plan_shards
from .worker import DEFAULT_HEARTBEAT_EVENTS, ShardTask, WorkerResult, run_shard

__all__ = ["ShardOutcome", "FarmStats", "FarmResult", "analyze_file", "analyze_events"]

#: per-shard pool attempts beyond the first
DEFAULT_RETRIES = 2

#: seconds between heartbeat-driven progress reports
PROGRESS_INTERVAL = 0.5

#: pool wait quantum: how often heartbeats are polled while blocked
POLL_INTERVAL = 0.1


class ShardOutcome(NamedTuple):
    """How one shard fared: where it ran, how often, how fast."""

    shard_id: int
    threads: Tuple[int, ...]
    events: int          #: events decoded by the worker (shard chunks)
    seconds: float       #: in-worker analysis wall time
    attempts: int        #: pool submissions consumed (0 when inline-only)
    where: str           #: "pool" | "inline"
    retries: int = 0     #: failed pool attempts of this shard
    timeouts: int = 0    #: of those, how many were per-shard timeouts
    decode_seconds: float = 0.0
    analyze_seconds: float = 0.0
    max_rss_kb: int = 0  #: worker peak RSS (heartbeat-reported)
    heartbeats: int = 0  #: heartbeat records received from this shard

    @property
    def events_per_s(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


class FarmStats(NamedTuple):
    """Aggregate run report, rendered by ``reporting.render_farm_stats``."""

    strategy: str
    jobs: int
    outcomes: List[ShardOutcome]
    retries: int         #: failed pool attempts that were retried
    fallbacks: int       #: shards that ended up running inline
    pool_failures: int   #: broken pools / failed pool creations observed
    wall_seconds: float
    event_count: int     #: events in the trace (not per-shard decode work)
    metrics: Optional[List[Dict]] = None   #: farm registry snapshot
    metric: str = "trms"      #: input-size metric the workers computed


class FarmResult(NamedTuple):
    db: ProfileDatabase
    stats: FarmStats


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _run_inline(task: ShardTask) -> WorkerResult:
    return run_shard(task._replace(fault=None))


class _HeartbeatWatcher:
    """Tails the per-shard heartbeat files the coordinator hands out.

    ``poll`` is called from the pool wait loop: it reads any new JSONL
    records, keeps per-shard progress state, and (throttled) reports a
    one-line progress summary through the ``progress`` callback.  All
    harvested records are kept so worker spans and heartbeats can be
    re-emitted into the session telemetry once the run settles.
    """

    def __init__(self, directory: str, progress: Optional[Callable[[str], None]]):
        self.directory = directory
        self.progress = progress
        self.records: List[Dict] = []
        self.state: Dict[int, Dict] = {}
        self._offsets: Dict[str, int] = {}
        self._partial: Dict[str, str] = {}
        self._last_report = time.perf_counter()

    def _consume(self, record: Dict) -> None:
        self.records.append(record)
        if record.get("type") != "heartbeat":
            return
        shard = record.get("shard", -1)
        state = self.state.setdefault(
            shard, {"phase": "?", "events": 0, "rss_kb": 0, "beats": 0, "wall": 0.0})
        state["phase"] = record.get("phase", "?")
        state["events"] = max(state["events"], record.get("events", 0))
        state["rss_kb"] = max(state["rss_kb"], record.get("rss_kb", 0))
        state["wall"] = max(state["wall"], record.get("wall", 0.0))
        state["beats"] += 1

    def poll(self, report: bool = True) -> None:
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    stream.seek(self._offsets.get(name, 0))
                    data = stream.read()
                    self._offsets[name] = stream.tell()
            except OSError:
                continue
            if not data:
                continue
            data = self._partial.pop(name, "") + data
            lines = data.split("\n")
            if not data.endswith("\n"):
                self._partial[name] = lines.pop()
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    self._consume(record)
        if report:
            self._report()

    def _report(self) -> None:
        now = time.perf_counter()
        if self.progress is None or not self.state:
            return
        if now - self._last_report < PROGRESS_INTERVAL:
            return
        self._last_report = now
        live = [shard for shard in sorted(self.state)
                if self.state[shard]["phase"] != "done"]
        if not live:
            return
        parts = [f"shard {shard} {self.state[shard]['phase']} "
                 f"{self.state[shard]['events']:,} events"
                 for shard in live]
        self.progress("farm: " + "; ".join(parts) + "\n")

    def summary(self, shard_id: int) -> Dict:
        return self.state.get(
            shard_id, {"phase": "?", "events": 0, "rss_kb": 0, "beats": 0, "wall": 0.0})


def _run_pool(
    tasks: Sequence[ShardTask],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    progress: Optional[Callable[[str], None]],
    watcher: Optional[_HeartbeatWatcher] = None,
    on_failure: Optional[Callable[[int, str], None]] = None,
) -> Tuple[Dict[int, WorkerResult], Dict[int, int], List[ShardTask], int, int]:
    """Pool phase: returns (results, attempts, leftover-for-inline, retried, pool_failures).

    Waiting is a poll loop (``concurrent.futures.wait`` in
    :data:`POLL_INTERVAL` quanta) so heartbeats surface while workers
    run.  The per-shard ``timeout`` clock starts when the shard is
    *observed running* — a task queued behind a hung sibling is never
    charged for the wait.  ``on_failure(shard_id, "timeout" | "error")``
    reports every failed pool attempt as it is classified.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: Dict[int, WorkerResult] = {}
    attempts: Dict[int, int] = {task.shard_id: 0 for task in tasks}
    leftover: List[ShardTask] = []
    pending = list(tasks)
    retried = 0
    pool_failures = 0

    while pending:
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)), mp_context=_pool_context())
        except Exception as error:  # pool cannot even start: degrade fully
            pool_failures += 1
            if progress:
                progress(f"farm: process pool unavailable ({error}); running inline\n")
            leftover.extend(pending)
            return results, attempts, leftover, retried, pool_failures

        failed: List[ShardTask] = []
        broken = False
        started_at: Dict[int, float] = {}
        try:
            futures = {}
            for task in pending:
                attempts[task.shard_id] += 1
                futures[executor.submit(run_shard, task)] = task
            outstanding = set(futures)
            while outstanding:
                done, _ = wait(outstanding, timeout=POLL_INTERVAL,
                               return_when=FIRST_COMPLETED)
                now = time.perf_counter()
                for future in done:
                    task = futures[future]
                    outstanding.discard(future)
                    try:
                        results[task.shard_id] = future.result()
                    except BrokenProcessPool:
                        broken = True
                        failed.append(task)
                        if on_failure:
                            on_failure(task.shard_id, "error")
                    except Exception:
                        failed.append(task)
                        if on_failure:
                            on_failure(task.shard_id, "error")
                for future in list(outstanding):
                    task = futures[future]
                    if future.running():
                        started_at.setdefault(task.shard_id, now)
                    ran_for = now - started_at.get(task.shard_id, now)
                    if timeout is not None and ran_for > timeout:
                        # a hung worker poisons its slot: abandon the
                        # future, recycle the whole pool afterwards
                        outstanding.discard(future)
                        future.cancel()
                        broken = True
                        failed.append(task)
                        if on_failure:
                            on_failure(task.shard_id, "timeout")
                if watcher is not None:
                    watcher.poll()
        finally:
            if broken:
                pool_failures += 1
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                executor.shutdown(wait=True)

        pending = []
        for task in failed:
            if attempts[task.shard_id] <= retries:
                retried += 1
                if progress:
                    progress(f"farm: shard {task.shard_id} failed "
                             f"(attempt {attempts[task.shard_id]}), retrying\n")
                pending.append(task)
            else:
                if progress:
                    progress(f"farm: shard {task.shard_id} exhausted "
                             f"{attempts[task.shard_id]} attempts; falling back inline\n")
                leftover.append(task)
    return results, attempts, leftover, retried, pool_failures


def analyze_file(
    path: str,
    jobs: Optional[int] = None,
    context_sensitive: bool = False,
    keep_activations: bool = False,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    progress: Optional[Callable[[str], None]] = None,
    faults: Optional[Dict[int, Tuple]] = None,
    heartbeat_events: int = DEFAULT_HEARTBEAT_EVENTS,
    metric: str = "trms",
) -> FarmResult:
    """Analyse a recorded trace (v1 or v2) with the farm; exact by contract.

    ``metric`` is the input-size metric every worker's flat kernel
    (:mod:`repro.core.flatkernel`) computes: ``"trms"`` (the default)
    or ``"rms"``.  The differential tests run every benchmark through
    both against the online profilers.

    ``faults`` maps shard ids to :class:`~repro.farm.worker.ShardTask`
    fault specs — test hooks for the retry and fallback paths; inline
    (fallback) execution always strips faults, so an injected fault can
    delay but never corrupt the result.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    started = time.perf_counter()
    tele = telemetry.current()
    farm_metrics = MetricsRegistry()

    def bump(name: str, amount: int = 1, **labels) -> None:
        farm_metrics.counter(name, **labels).inc(amount)
        tele.counter(name, **labels).inc(amount)

    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, jobs)

    temp_path: Optional[str] = None
    heartbeat_dir = tempfile.mkdtemp(prefix="repro-farm-hb-")
    try:
        if not is_binary_trace(path):
            with tele.span("analyze.convert", source=os.path.basename(path)):
                handle, temp_path = tempfile.mkstemp(suffix=".rpt2")
                with os.fdopen(handle, "wb") as binary, \
                        open(path, "r", encoding="utf-8") as text:
                    convert_v1_to_v2(text, binary, chunk_events=chunk_events)
            trace_path = temp_path
        else:
            trace_path = path

        with tele.span("analyze.plan", jobs=jobs):
            with open(trace_path, "rb") as stream:
                meta = read_trace_meta(stream)
            plan: ShardPlan = plan_shards(meta, jobs)
        bump("farm.trace_events", meta.event_count)
        bump("farm.shards", len(plan.shards))
        farm_metrics.gauge("farm.jobs").set(jobs)
        tele.gauge("farm.jobs").set(jobs)

        tasks = [
            ShardTask(
                trace_path, shard.shard_id, shard.threads, shard.chunk_indices,
                context_sensitive=context_sensitive,
                keep_activations=keep_activations,
                fault=(faults or {}).get(shard.shard_id),
                heartbeat_path=os.path.join(
                    heartbeat_dir, f"shard-{shard.shard_id}.jsonl"),
                heartbeat_events=heartbeat_events,
                metric=metric,
            )
            for shard in plan.shards
        ]
        watcher = _HeartbeatWatcher(heartbeat_dir, progress)

        def on_failure(shard_id: int, kind: str) -> None:
            bump("farm.shard.retries", shard=shard_id)
            if kind == "timeout":
                bump("farm.shard.timeouts", shard=shard_id)

        results: Dict[int, WorkerResult] = {}
        attempts: Dict[int, int] = {task.shard_id: 0 for task in tasks}
        retried = 0
        pool_failures = 0
        pool_span_id: Optional[int] = None
        if jobs > 1 and len(tasks) > 1:
            with tele.span("analyze.pool", jobs=jobs, shards=len(tasks)) as pool_span:
                pool_span_id = pool_span.span_id or None
                results, attempts, _, retried, pool_failures = _run_pool(
                    tasks, jobs, timeout, retries, progress, watcher, on_failure)
        bump("farm.pool_failures", pool_failures)

        fallbacks = 0
        for task in tasks:
            if task.shard_id not in results:
                if jobs > 1 and len(tasks) > 1:
                    fallbacks += 1
                    bump("farm.shard.fallbacks", shard=task.shard_id)
                with tele.span("analyze.inline", shard=task.shard_id):
                    results[task.shard_id] = _run_inline(task)

        with tele.span("analyze.merge", shards=len(tasks)):
            merged = merge_databases(
                (results[task.shard_id].db for task in tasks),
                keep_activations=keep_activations,
            )

        # settle the heartbeat channel: final poll, re-emit worker
        # records into the session event log, account the totals
        watcher.poll(report=False)
        for record in watcher.records:
            if record.get("type") == "span" and pool_span_id is not None:
                record = {**record, "parent": pool_span_id}
            tele.emit(record)
        bump("farm.heartbeats",
             sum(1 for record in watcher.records
                 if record.get("type") == "heartbeat"))

        outcomes: List[ShardOutcome] = []
        for task in tasks:
            result = results[task.shard_id]
            where = "pool" if result.pid != os.getpid() else "inline"
            beat = watcher.summary(task.shard_id)
            bump("farm.shard.events", result.events_decoded, shard=task.shard_id)
            bump("farm.kernel.events", result.events_decoded, metric=metric)
            farm_metrics.histogram("farm.shard_ms").observe(result.seconds * 1000)
            tele.histogram("farm.shard_ms").observe(result.seconds * 1000)
            outcomes.append(ShardOutcome(
                task.shard_id, task.threads, result.events_decoded,
                result.seconds, attempts[task.shard_id], where,
                # per-shard failure tallies come from the telemetry
                # counters the failure callbacks incremented above
                retries=farm_metrics.counter(
                    "farm.shard.retries", shard=task.shard_id).value,
                timeouts=farm_metrics.counter(
                    "farm.shard.timeouts", shard=task.shard_id).value,
                decode_seconds=result.decode_seconds,
                analyze_seconds=result.analyze_seconds,
                max_rss_kb=max(result.max_rss_kb, beat["rss_kb"]),
                heartbeats=beat["beats"],
            ))

        stats = FarmStats(
            plan.strategy, jobs, outcomes, retried, fallbacks, pool_failures,
            time.perf_counter() - started, meta.event_count,
            metrics=farm_metrics.snapshot(), metric=metric,
        )
        return FarmResult(merged, stats)
    finally:
        shutil.rmtree(heartbeat_dir, ignore_errors=True)
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def analyze_events(
    events,
    jobs: Optional[int] = None,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    **kwargs,
) -> FarmResult:
    """Farm-analyse an in-memory event stream (spools to a temp v2 file)."""
    from .binfmt import write_binary_trace

    handle, path = tempfile.mkstemp(suffix=".rpt2")
    try:
        with os.fdopen(handle, "wb") as stream:
            write_binary_trace(events, stream, chunk_events=chunk_events)
        return analyze_file(path, jobs=jobs, chunk_events=chunk_events, **kwargs)
    finally:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
