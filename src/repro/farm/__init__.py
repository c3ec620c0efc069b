"""Offline trace analysis: the binary trace format, one pass, merging.

The paper analyses one serialized, globally ordered event stream with a
single latest-access pass; offline, this package runs that pass over a
recorded trace:

* :mod:`repro.farm.binfmt` — trace format v2: chunked, struct-packed
  binary traces with a string table and a seekable chunk index, plus
  the columnar chunk decode the kernel consumes;
* :mod:`repro.farm.engine` — ``analyze_file``: decode each chunk once
  and feed it to one :class:`~repro.core.flatkernel.FlatAnalyzer` per
  requested metric;
* :mod:`repro.farm.merge` — exact, associative profile merging across
  independent runs, plus the lossless profile dump format.

The contract is exactness: every profile is bit-identical to the online
:class:`~repro.core.trms.TrmsProfiler` (or
:class:`~repro.core.rms.RmsProfiler`) on every workload.
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
from .engine import AnalysisResult, AnalysisStats, analyze_events, analyze_file
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
    "AnalysisResult",
    "AnalysisStats",
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
]
