"""Layer spans for the traced run, recorded from outside the program.

Only a ``--trace 1`` run installs these.  Each layer entry point is
replaced, at the module attribute its callers look up, by a thin
wrapper that records a span: layer, label, start, end and parent.
Per-event methods are never wrapped, so the overhead stays per call.
Spans live in memory for one op; a layer's self time is its span's
duration minus the time covered by its child spans, and the op's own
root span keeps whatever no layer covered (``cli.self_ms``).

An entry point that no longer exists is reported as absent instead of
failing the run, so the benchmark keeps working when a later change
deletes or renames a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from hostspeed import SleepMeter, Slept, nominal_ms

#: (module, attribute path, layer) for every wrapped entry point
ENTRY_POINTS: List[Tuple[str, str, str]] = [
    ("repro.workloads.suites", "Benchmark.run", "record"),
    ("repro.farm", "analyze_file", "analyze.trms"),
    ("repro.core", "replay", "analyze.rms"),
    ("repro.farm", "save_profile", "dump"),
    ("repro.farm", "load_profile", "load"),
    ("repro.farm", "merge_databases", "merge"),
    ("repro.cli", "select_model", "fit"),
    ("repro.observatory.ingest", "select_model", "fit"),
    ("repro.cli", "render_report", "report"),
    ("repro.observatory.store", "ObservatoryStore.__init__", "store.open"),
    ("repro.observatory.store", "ObservatoryStore.add_run", "store.add"),
    ("repro.observatory", "detect_drift", "drift"),
    ("repro.observatory.dashboards", "detect_drift", "drift"),
    ("repro.observatory", "render_alert_feed", "dashboard"),
    ("repro.observatory", "render_observatory_report", "dashboard"),
]

#: layer name of the root span every traced op opens
ROOT = "op"


class Span:
    __slots__ = ("layer", "label", "start", "end", "parent", "child_s",
                 "slept", "child_slept")

    def __init__(self, layer: str, label: str, parent: Optional["Span"],
                 slept: Slept):
        self.layer = layer
        self.label = label
        self.parent = parent
        self.child_s = 0.0
        #: the sleep meter's reading at open; the span's own sleeps once closed
        self.slept = slept
        self.child_slept = (0.0, 0.0)
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    @property
    def self_slept(self) -> Slept:
        return (self.slept[0] - self.child_slept[0],
                self.slept[1] - self.child_slept[1])


class Tracer:
    """Installs the wrappers and collects one op's spans at a time."""

    def __init__(self, meter: SleepMeter) -> None:
        self.meter = meter
        self.label = ""
        self.absent: List[str] = []
        self._active = False
        self._stack: List[Span] = []
        self._spans: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: the spans of the most recent op, in closing order
        self.last_op: List[Span] = []

    def install(self) -> None:
        for module_name, path, layer in ENTRY_POINTS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{path}")
                continue
            setattr(owner, attr, self._wrap(original, layer))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            span = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return traced

    def _open(self, layer: str) -> Span:
        span = Span(layer, self.label, self._stack[-1] if self._stack else None,
                    self.meter.reading())
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.slept = self.meter.since(span.slept)
        self._stack.pop()
        if span.parent is not None:
            parent = span.parent
            parent.child_s += span.end - span.start
            parent.child_slept = (parent.child_slept[0] + span.slept[0],
                                  parent.child_slept[1] + span.slept[1])
        self._spans.append(span)

    def begin_op(self) -> None:
        self._spans = []
        self._stack = []
        self.label = ""
        self._active = True
        self._open(ROOT)

    def end_op(self) -> List[Span]:
        while self._stack:
            self._close(self._stack[-1])
        self._active = False
        self.last_op = self._spans
        return self._spans


def layer_totals(spans: List[Span],
                 factor: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self time (nominal ms) and call count of one op's spans.

    ``factor`` is the op's host-speed factor.  A labelled span counts
    toward its layer and toward ``<layer>.<label>`` as well.
    """
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        keys = [span.layer]
        if span.label and span.layer != ROOT:
            keys.append(f"{span.layer}.{span.label}")
        ms = nominal_ms(span.self_s * 1000.0, span.self_slept, factor)
        for key in keys:
            self_ms[key] += ms
            calls[key] += 1
    return self_ms, calls



def render_tree(spans: List[Span]) -> str:
    """One op's spans as an indented tree: start, duration, self time (ms)."""
    if not spans:
        return ""
    origin = min(span.start for span in spans)
    lines = []
    for span in sorted(spans, key=lambda span: span.start):
        depth, parent = 0, span.parent
        while parent is not None:
            depth, parent = depth + 1, parent.parent
        name = f"{span.layer}.{span.label}" if span.label and span.layer != ROOT else span.layer
        lines.append(f"  {'  ' * depth}{name:<{32 - 2 * depth}s} "
                     f"at {(span.start - origin) * 1000.0:8.2f}  "
                     f"{(span.end - span.start) * 1000.0:8.2f}  "
                     f"self {span.self_s * 1000.0:8.2f}")
    return "\n".join(lines)
