"""Distributed trace-analysis farm.

The paper's closing future-work item asks for "a fully scalable and
concurrent dynamic instrumentation framework … to exploit parallelism
to leverage the slowdown of our profiler".  Replayed offline in global
trace order, a thread's profile depends only on its own events and the
latest writes before each of its reads, so whole threads can be
analysed in separate processes — Python threads cannot cash that in
under the GIL.  This package does:

* :mod:`repro.farm.binfmt` — trace format v2: chunked, struct-packed
  binary traces with a string table and a seekable chunk index;
* :mod:`repro.farm.shards` — shard planning over the chunk index
  (whole threads per shard, chunk-range fallback for skewed traces);
* :mod:`repro.farm.worker` — the per-process shard analyser;
* :mod:`repro.farm.merge` — exact, associative profile merging across
  shards and across independent runs, plus the lossless profile dump
  format;
* :mod:`repro.farm.engine` — orchestration with per-shard timeouts,
  bounded retries and inline fallback.

The farm's contract is exactness: its merged output is bit-identical
to the online :class:`~repro.core.trms.TrmsProfiler` (or
:class:`~repro.core.rms.RmsProfiler`) on every workload; parallel
speed is never allowed to change a profile.
"""

from .binfmt import (
    BINARY_MAGIC,
    NAMES_SUFFIX,
    BinaryTraceError,
    BinaryTraceWriter,
    ChunkMeta,
    TraceMeta,
    TruncatedChunk,
    convert_v1_to_v2,
    convert_v2_to_v1,
    is_binary_trace,
    iter_binary_trace,
    live_names_path,
    read_binary_trace,
    read_trace_meta,
    write_binary_trace,
)
from .engine import FarmResult, FarmStats, ShardOutcome, analyze_events, analyze_file
from .merge import (
    PROFILE_MAGIC,
    ProfileDumpError,
    copy_database,
    is_profile_dump,
    load_profile,
    merge_databases,
    merge_into,
    save_profile,
)
from .shards import Shard, ShardPlan, plan_shards
from .worker import ShardTask, WorkerResult, run_shard

__all__ = [
    "BINARY_MAGIC",
    "NAMES_SUFFIX",
    "BinaryTraceError",
    "BinaryTraceWriter",
    "ChunkMeta",
    "TraceMeta",
    "TruncatedChunk",
    "live_names_path",
    "convert_v1_to_v2",
    "convert_v2_to_v1",
    "is_binary_trace",
    "iter_binary_trace",
    "read_binary_trace",
    "read_trace_meta",
    "write_binary_trace",
    "FarmResult",
    "FarmStats",
    "ShardOutcome",
    "analyze_events",
    "analyze_file",
    "PROFILE_MAGIC",
    "ProfileDumpError",
    "copy_database",
    "is_profile_dump",
    "load_profile",
    "merge_databases",
    "merge_into",
    "save_profile",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "ShardTask",
    "WorkerResult",
    "run_shard",
]
