"""Shard planning: carve a chunked trace into independent work units.

The offline analysis (:mod:`repro.core.flatkernel`) is exact per
thread: replayed in global trace order, thread ``t``'s profile depends
only on ``t``'s own events and every thread's writes.  A *shard* is
therefore a set of whole threads plus the chunk subset a worker must
decode to analyse them:

* every chunk containing a write (by anyone) — a TRMS worker rebuilds
  the global latest-write table locally from those, which is cheaper
  than pickling shared state across process boundaries;
* every chunk containing at least one event of an assigned thread.

Two planning strategies, chosen automatically:

* ``by-thread`` (default): longest-processing-time bin packing of
  threads into ``jobs`` bins by their whole-trace event counts.  Best
  when thread activity is roughly uniform.
* ``by-chunks`` (skew fallback): when a few threads dominate the trace,
  per-thread totals make LPT degenerate (one giant bin, idle workers).
  The fallback walks the chunk index in trace order, cutting shard
  boundaries at chunk granularity so each shard owns a contiguous
  chunk *range*'s worth of events; a thread belongs to the shard
  covering the range where it first appears.  Threads stay whole (the
  per-thread automaton is sequential — splitting one would break
  exactness), but phased workloads balance better because shard
  boundaries follow trace time instead of thread identity.

Either way the plan is exhaustive and disjoint: every thread of the
trace appears in exactly one shard, which the differential tests rely
on.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .binfmt import ChunkMeta, TraceMeta

__all__ = ["Shard", "ShardPlan", "plan_shards"]

#: a thread holding more than this share of all events marks the trace
#: as skewed (thread-level LPT cannot balance it across jobs)
SKEW_THRESHOLD = 0.5


class Shard(NamedTuple):
    """One unit of farm work: whole threads + the chunks to decode."""

    shard_id: int
    threads: Tuple[int, ...]
    chunk_indices: Tuple[int, ...]   #: chunks the worker decodes (threads ∪ writes)
    events: int                      #: assigned threads' event total (load estimate)


class ShardPlan(NamedTuple):
    strategy: str                    #: "by-thread" | "by-chunks" | "empty"
    shards: List[Shard]

    def total_events(self) -> int:
        return sum(shard.events for shard in self.shards)


def _chunks_for(threads: frozenset, chunks: Sequence[ChunkMeta]) -> Tuple[int, ...]:
    """Indices of every chunk a worker for ``threads`` must decode."""
    needed = []
    for index, chunk in enumerate(chunks):
        if chunk.writes or not threads.isdisjoint(chunk.thread_counts):
            needed.append(index)
    return tuple(needed)


def _pack_by_thread(totals: Dict[int, int], jobs: int) -> List[List[int]]:
    """LPT bin packing: heaviest thread first, into the lightest bin."""
    loads = [0] * jobs
    bins: List[List[int]] = [[] for _ in range(jobs)]
    for thread, count in sorted(totals.items(), key=lambda item: (-item[1], item[0])):
        slot = min(range(jobs), key=loads.__getitem__)
        bins[slot].append(thread)
        loads[slot] += count
    return [sorted(members) for members in bins if members]


def _pack_by_chunks(
    totals: Dict[int, int], chunks: Sequence[ChunkMeta], jobs: int
) -> List[List[int]]:
    """Skew fallback: cut shard boundaries along the chunk sequence.

    Threads are claimed by the shard whose chunk range sees them first;
    a boundary falls whenever the running event total passes the next
    ``1/jobs`` slice of the trace.
    """
    target = max(1, sum(totals.values()) // jobs)
    groups: List[List[int]] = [[]]
    claimed: Dict[int, None] = {}
    running = 0
    for chunk in chunks:
        for thread in sorted(chunk.thread_counts):
            if thread not in claimed:
                claimed[thread] = None
                groups[-1].append(thread)
        running += chunk.events
        if running >= target and len(groups) < jobs:
            running = 0
            groups.append([])
    return [sorted(group) for group in groups if group]


def plan_shards(meta: TraceMeta, jobs: int) -> ShardPlan:
    """Plan at most ``jobs`` shards covering every thread of ``meta``."""
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    totals = meta.thread_totals()
    if not totals:
        return ShardPlan("empty", [])
    total_events = sum(totals.values())
    skewed = (
        len(totals) > 1
        and jobs > 1
        and max(totals.values()) > SKEW_THRESHOLD * total_events
    )
    if skewed:
        strategy = "by-chunks"
        groups = _pack_by_chunks(totals, meta.chunks, jobs)
    else:
        strategy = "by-thread"
        groups = _pack_by_thread(totals, jobs)

    shards = []
    for shard_id, members in enumerate(groups):
        member_set = frozenset(members)
        shards.append(Shard(
            shard_id,
            tuple(members),
            _chunks_for(member_set, meta.chunks),
            sum(totals[thread] for thread in members),
        ))
    return ShardPlan(strategy, shards)
