"""Lock-safe metrics registry: counters, gauges, log-bucket histograms.

The registry is the telemetry layer's aggregation primitive.  It is
deliberately tiny and dependency-free so it can live in two very
different places at once:

* inside the *online* profiler and the offline analysis, where it must
  never perturb the profiled computation (no I/O on the hot path, one
  short-held lock per update);
* inside the ingestion server's worker threads and request handlers,
  whose series are exported on ``/metrics``.

Metrics are identified by ``(name, labels)``; labels are arbitrary
keyword arguments (``registry.counter("farm.kernel.events", metric="rms")``),
so per-metric and per-tool series coexist under one metric name.

Histograms use **fixed log-scale buckets**: bucket ``i`` counts
observations in ``(2**(i-1), 2**i]`` (bucket 0 is ``(-inf, 1]``, the
last bucket is unbounded).  Fixed boundaries make histograms from
different runs — or different processes — mergeable by plain addition,
the same discipline the profile merge layer follows.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "bucket_index",
    "bucket_bound",
    "bucket_counts",
    "quantile_from_buckets",
    "quantiles_from_buckets",
    "merge_snapshots",
]

#: histogram buckets beyond this index collapse into one overflow bucket
MAX_BUCKET = 63

LabelItems = Tuple[Tuple[str, object], ...]


def bucket_index(value: float) -> int:
    """The fixed log-scale bucket of ``value``.

    ``0`` for anything ≤ 1 (including negatives: telemetry observes
    durations and sizes, where sub-unit values are all "tiny"), then one
    bucket per power of two, capped at :data:`MAX_BUCKET`.
    """
    if value <= 1:
        return 0
    ceiling = math.ceil(value)
    return min(MAX_BUCKET, (int(ceiling) - 1).bit_length())


def bucket_bound(index: int) -> float:
    """Inclusive upper bound of bucket ``index`` (``inf`` for the last)."""
    if index >= MAX_BUCKET:
        return math.inf
    return float(2 ** index)


def bucket_counts(values) -> Dict[int, int]:
    """The log2 bucket counts of an iterable of raw observations."""
    buckets: Dict[int, int] = {}
    for value in values:
        index = bucket_index(value)
        buckets[index] = buckets.get(index, 0) + 1
    return buckets


def quantile_from_buckets(buckets, count: int, fraction: float) -> float:
    """Estimate one quantile from log2 bucket counts.

    The shared estimator behind every p50/p95/p99 the repo reports from
    histogram data (``repro slap``, the service SLO tracker): find the
    bucket holding the nearest-rank observation and interpolate linearly
    inside its ``(lower, upper]`` range.  Accepts bucket keys as ints or
    strings (metric snapshots serialize them as strings).  Exact to
    within one bucket width by construction — the price of mergeable
    fixed buckets over raw samples.
    """
    if count <= 0 or not buckets:
        return 0.0
    ordered = sorted((int(index), int(n)) for index, n in buckets.items())
    rank = min(count, max(1, math.ceil(fraction * count)))
    cumulative = 0
    for index, n in ordered:
        if n <= 0:
            continue
        if cumulative + n >= rank:
            lower = 0.0 if index == 0 else bucket_bound(index - 1)
            upper = bucket_bound(index)
            if upper == math.inf:       # unbounded overflow bucket:
                return lower            # report its (huge) lower bound
            position = (rank - cumulative) / n
            return lower + position * (upper - lower)
        cumulative += n
    return bucket_bound(ordered[-1][0])


def quantiles_from_buckets(buckets, count: int, fractions) -> List[float]:
    """`quantile_from_buckets` over several fractions (monotone result)."""
    return [quantile_from_buckets(buckets, count, fraction)
            for fraction in fractions]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_lock", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that goes up and down (RSS, queue depth, space bytes)."""

    __slots__ = ("name", "labels", "_lock", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.value = 0

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def add(self, amount) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed log-scale bucket histogram (see module docstring)."""

    __slots__ = ("name", "labels", "_lock", "buckets", "count", "total")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        with self._lock:
            self.buckets[index] = self.buckets.get(index, 0) + 1
            self.count += 1
            self.total += value

    def quantile(self, fraction: float) -> float:
        """Estimated quantile of the observations (log2-bucket resolution)."""
        with self._lock:
            return quantile_from_buckets(self.buckets, self.count, fraction)

    def snapshot(self) -> Dict:
        with self._lock:
            buckets = {str(index): count
                       for index, count in sorted(self.buckets.items())}
            return {"kind": self.kind, "name": self.name,
                    "labels": dict(self.labels), "count": self.count,
                    "sum": self.total, "buckets": buckets}


class MetricsRegistry:
    """Get-or-create home of every metric of one process/run.

    Creation is serialized on one registry lock; each metric then
    guards its own updates, so hot counters in different subsystems
    never contend with each other.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, LabelItems], object] = {}

    def _get(self, factory, name: str, labels: Dict):
        key = (factory.kind, name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory(name, key[2])
                    self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> List[Dict]:
        """Every metric as a JSON-ready dict, deterministically ordered."""
        with self._lock:
            metrics = list(self._metrics.items())
        metrics.sort(key=lambda item: (item[0][1], item[0][0], item[0][2]))
        return [metric.snapshot() for _, metric in metrics]

    def find(self, name: str, kind: Optional[str] = None, **labels) -> List[Dict]:
        """Snapshots of the metrics matching ``name`` (and labels subset)."""
        wanted = set(labels.items())
        found = []
        for entry in self.snapshot():
            if entry["name"] != name:
                continue
            if kind is not None and entry["kind"] != kind:
                continue
            if not wanted <= set(entry["labels"].items()):
                continue
            found.append(entry)
        return found


def merge_snapshots(snapshots) -> List[Dict]:
    """Merge metric snapshot lists (counters/sums add, gauges take max).

    The coordinator uses this to fold worker-reported metrics into the
    run's registry view; fixed histogram buckets make the merge exact.
    """
    merged: Dict[Tuple[str, str, LabelItems], Dict] = {}
    for snapshot in snapshots:
        for entry in snapshot:
            key = (entry["kind"], entry["name"],
                   tuple(sorted(entry["labels"].items())))
            into = merged.get(key)
            if into is None:
                merged[key] = {**entry, "labels": dict(entry["labels"]),
                               **({"buckets": dict(entry["buckets"])}
                                  if entry["kind"] == "histogram" else {})}
                continue
            if entry["kind"] == "counter":
                into["value"] += entry["value"]
            elif entry["kind"] == "gauge":
                into["value"] = max(into["value"], entry["value"])
            else:
                into["count"] += entry["count"]
                into["sum"] += entry["sum"]
                for index, count in entry["buckets"].items():
                    into["buckets"][index] = into["buckets"].get(index, 0) + count
    return [merged[key] for key in sorted(merged, key=lambda k: (k[1], k[0], k[2]))]


class NullCounter:
    """No-op counter: the disabled-telemetry fast path."""

    __slots__ = ()
    kind = "counter"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge:
    __slots__ = ()
    kind = "gauge"
    value = 0

    def set(self, value) -> None:
        pass

    def add(self, amount) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    kind = "histogram"
    count = 0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, fraction: float) -> float:
        return 0.0


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry whose metrics all discard their updates.

    Shared singletons make ``telemetry.counter(...).inc()`` allocation-
    free when telemetry is off — the zero-cost-when-disabled contract.
    """

    def counter(self, name: str, **labels) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels) -> NullHistogram:
        return _NULL_HISTOGRAM

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> List[Dict]:
        return []

    def find(self, name: str, kind: Optional[str] = None, **labels) -> List[Dict]:
        return []
