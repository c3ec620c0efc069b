"""The three workloads: inputs, ops and per-op oracles.

Every workload drives the program through the entry points a user
calls: the CLI in-process through ``repro.cli.main(argv, out=...)``
with its default ``--jobs 1``, and ``repro.observatory.ingest_path``
for the write op a long-lived ``repro serve`` performs.  Every op has
two timed phases, ``write`` and ``read``:

* ``profile-md``: write = ``repro record``, read = ``repro analyze``;
* ``reanalyze-mix``: read = three ``repro analyze`` runs, write =
  ``repro merge`` then ``repro fit``;
* ``observatory-history``: read = ``repro observe alerts`` and
  ``repro observe report``, write = ``ingest_path`` into an open store.

An op can be executed more than once: ``prepare`` runs, untimed,
before every execution.  Each execution's output is checked after its
timing against an oracle that does not share the path under test (see
``Expected`` and ``merge_dump_texts``).  A mismatch or an exception
fails the execution.
"""

from __future__ import annotations

import importlib
import io
import math
import os
import random
import re
import shutil
import stat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from hostspeed import SleepMeter, normalised_call
from spans import layer_totals

#: a phase returns whatever its check needs
Phase = Tuple[str, Callable[[], object]]


class Op(NamedTuple):
    phases: List[Phase]
    #: given the phase results in order, None or what went wrong
    check: Callable[[List[object]], Optional[str]]
    label: str
    #: untimed, before every execution: clears or renews the op's outputs
    prepare: Callable[[], None]


class Expected(NamedTuple):
    """What ``repro analyze --metric both --dump`` must produce."""

    dump: str               #: the TRMS profile dump, byte for byte
    reports: List[str]      #: the rms and trms reports, verbatim


def cli_call(cli, argv: List[str]) -> Tuple[int, str]:
    """Run one ``repro`` command in-process; its exit code and output."""
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as stream:
        return stream.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


def _remove(*paths: str) -> Callable[[], None]:
    """A ``prepare`` that deletes an op's outputs, so a missed write fails it."""
    def remove() -> None:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
    return remove


def _stratified(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    """One seeded draw from each of ``count`` equal slices of [low, high).

    Stratifying keeps the spread of op sizes the same for every seed,
    so medians compare across seeds while the inputs still differ.
    """
    width = (high - low) / count
    return [round(low + width * (k + rng.random()), 3) for k in range(count)]


#: the metrics of ``profile-md``'s big pass; 0 on the other workloads
BIG_METRICS = ("big.events", "big.vm_events_per_s", "big.record_events_per_s",
               "big.decode_events_per_s", "big.rms_events_per_s",
               "big.trms_events_per_s")


class Workload:
    name = ""
    #: per-layer counts the workload fixes for the whole run
    counts: Dict[str, float] = {}

    def __init__(self, meter: SleepMeter) -> None:
        self.meter = meter
        self.tracer = None

    def setup(self, work: str, seed: int) -> None:
        raise NotImplementedError

    def make_op(self) -> Op:
        raise NotImplementedError

    def label(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.label = name

    def traced_extras(self, op: Op) -> Dict[str, float]:
        """Untimed per-layer samples taken after a traced op."""
        return {}

    def traced_finale(self, tracer, work: str) -> Dict[str, float]:
        """Per-layer metrics measured once, after the traced run's ops."""
        return dict.fromkeys(BIG_METRICS, 0.0)

    def _import(self) -> None:
        self.cli = importlib.import_module("repro.cli")
        self.core = importlib.import_module("repro.core")
        self.farm = importlib.import_module("repro.farm")
        self.suites = importlib.import_module("repro.workloads.suites")
        self.report = importlib.import_module("repro.reporting.report")

    # -- oracles -------------------------------------------------------------

    def online(self, bench: str, threads: int, scale: float, trace_path: str,
               context: bool = False) -> Expected:
        """Profile one run live, with the profilers attached to the VM.

        This is the paper's online path: no trace, no decoder, no
        offline kernel, so it is independent of what ``analyze`` runs.
        """
        rms = self.core.RmsProfiler(context_sensitive=context)
        trms = self.core.TrmsProfiler(context_sensitive=context)
        self.suites.benchmark(bench).run(
            tools=self.core.EventBus([rms, trms]), threads=threads, scale=scale)
        dump = io.StringIO()
        self.farm.save_profile(trms.db, dump)
        render = self.report.render_report
        return Expected(dump.getvalue(), [
            render(rms.db, title=f"rms profile of {trace_path}"),
            render(trms.db, title=f"trms profile of {trace_path}"),
        ])

    def analyze_argv(self, trace: str, dump: str, context: bool) -> List[str]:
        argv = ["analyze", trace, "--metric", "both", "--dump", dump]
        return argv + (["--context"] if context else [])

    @staticmethod
    def check_analysis(result: Tuple[int, str], dump: str,
                       expected: Expected) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"analyze exited {code}"
        if _read(dump) != expected.dump:
            return f"{dump} differs from the online profile"
        for report in expected.reports:
            if report not in out:
                return f"analyze report differs from the online profile ({dump})"
        return None

    def decode_sample(self, paths: List[str]) -> Dict[str, float]:
        """Events and ms to drain ``iter_binary_trace`` over ``paths``."""
        def drain() -> int:
            events = 0
            for path in paths:
                with open(path, "rb") as stream:
                    for _ in self.farm.iter_binary_trace(stream):
                        events += 1
            return events
        ms, _, _, events = normalised_call(self.meter, drain)
        return {"decode.events": events, "decode.ms": ms}


# -- profile-md --------------------------------------------------------------


class ProfileMd(Workload):
    """A developer profiles a program: record, then analyze."""

    name = "profile-md"
    BENCH, THREADS = "350.md", 2
    #: 65-69 particles, about 27k-30k events per op
    SCALES = (2.30, 2.46)
    #: odd, so the median op is the middle scale's, not the gap between two
    STRATA = 5
    #: the traced run's last pass, at the ROADMAP's realistic size (1.25M events)
    BIG_CELL = ("350.md", 2, 16)

    def setup(self, work: str, seed: int) -> None:
        self._import()
        rng = random.Random(seed)
        self.scales = _stratified(rng, *self.SCALES, self.STRATA)
        self.order = random.Random(seed + 1)
        self.cycle: List[float] = []
        self.trace = os.path.join(work, "md.rpt2")
        self.dump = os.path.join(work, "md.profile")
        self.expected = {scale: self.online(self.BENCH, self.THREADS, scale, self.trace)
                         for scale in self.scales}
        self.counts = {}

    def make_op(self) -> Op:
        if not self.cycle:
            self.cycle = list(self.scales)
            self.order.shuffle(self.cycle)
        scale = self.cycle.pop()
        record = ["record", self.BENCH, self.trace,
                  "--threads", str(self.THREADS), "--scale", str(scale)]
        analyze = self.analyze_argv(self.trace, self.dump, context=False)

        def check(results: List[object]) -> Optional[str]:
            code, out = results[0]
            if code != 0:
                return f"record exited {code}: {out.strip()}"
            return self.check_analysis(results[1], self.dump, self.expected[scale])

        return Op([("write", lambda: cli_call(self.cli, record)),
                   ("read", lambda: cli_call(self.cli, analyze))],
                  check, f"scale={scale}", _remove(self.trace, self.dump))

    def traced_extras(self, op: Op) -> Dict[str, float]:
        scale = float(op.label.split("=")[1])
        bench = self.suites.benchmark(self.BENCH)
        vm_ms, _, _, _ = normalised_call(
            self.meter, lambda: bench.run(tools=None, threads=self.THREADS, scale=scale))
        with open(self.trace, "rb") as stream:
            events = self.farm.read_trace_meta(stream).event_count
        sample = {"vm.run_ms": vm_ms, "record.events": events,
                  "trace.bytes": os.path.getsize(self.trace)}
        sample.update(self.decode_sample([self.trace]))
        return sample

    def traced_finale(self, tracer, work: str) -> Dict[str, float]:
        """One 1.25M-event record and analysis, as per-layer events/s."""
        bench, threads, scale = self.BIG_CELL
        trace = os.path.join(work, "big.rpt2")
        dump = os.path.join(work, "big.profile")
        record = ["record", bench, trace, "--threads", str(threads), "--scale", str(scale)]
        analyze = ["analyze", trace, "--metric", "both", "--dump", dump]
        layer_ms: Dict[str, float] = {}
        for argv in (record, analyze):
            tracer.begin_op()
            _, _, factor, (code, out) = normalised_call(
                self.meter, lambda argv=argv: cli_call(self.cli, argv))
            spans = tracer.end_op()
            if code != 0:
                raise RuntimeError(f"big pass: {' '.join(argv[:2])} exited {code}: {out}")
            for layer, ms in layer_totals(spans, factor)[0].items():
                layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
        with open(trace, "rb") as stream:
            events = self.farm.read_trace_meta(stream).event_count
        vm_ms, _, _, _ = normalised_call(
            self.meter, lambda: self.suites.benchmark(bench).run(
                tools=None, threads=threads, scale=scale))
        decode = self.decode_sample([trace])
        per_s = {
            "big.record_events_per_s": layer_ms.get("record", 0.0),
            "big.vm_events_per_s": vm_ms,
            "big.decode_events_per_s": decode["decode.ms"],
            "big.rms_events_per_s": layer_ms.get("analyze.rms", 0.0),
            "big.trms_events_per_s": layer_ms.get("analyze.trms", 0.0),
        }
        metrics = {name: events / ms * 1000.0 if ms else 0.0 for name, ms in per_s.items()}
        metrics["big.events"] = events
        return metrics


# -- reanalyze-mix -----------------------------------------------------------


class ReanalyzeMix(Workload):
    """Re-analyse recorded traces, then merge scales and fit."""

    name = "reanalyze-mix"
    #: label, benchmark, threads, scale range, --context
    TRACES = [
        # dense reads and writes, 6 calls: the latest-access shadow
        ("smithwa", "372.smithwa", 2, (2.00, 2.05), False),
        # dense calls and returns: shadow stack and context interning
        ("kdtree_ctx", "376.kdtree", 4, (4.00, 4.06), True),
        # kernel I/O and pipeline thread switches: TRMS induced input
        ("vips", "vips", 4, (1.45, 1.55), False),
    ]
    #: the merged program is kdtree_ctx; these scales join its own
    MERGE_SCALES = [(2.0, 2.3), (2.8, 3.1), (5.0, 5.3)]

    def setup(self, work: str, seed: int) -> None:
        self._import()
        rng = random.Random(seed)
        self.order = random.Random(seed + 1)
        self.traces = []
        for label, bench, threads, scales, context in self.TRACES:
            scale = round(rng.uniform(*scales), 3)
            trace = os.path.join(work, f"{label}.rpt2")
            dump = os.path.join(work, f"{label}.profile")
            code, out = cli_call(self.cli, ["record", bench, trace,
                                             "--threads", str(threads),
                                             "--scale", str(scale)])
            if code != 0:
                raise RuntimeError(f"record {bench} failed: {out}")
            self.traces.append((label, trace, dump, context,
                                self.online(bench, threads, scale, trace, context)))
        _, bench, threads, _, context = self.TRACES[1]
        self.merge_inputs = [self.traces[1][2]]
        texts = [self.traces[1][4].dump]
        for low, high in self.MERGE_SCALES:
            scale = round(rng.uniform(low, high), 3)
            path = os.path.join(work, f"kdtree_ctx-{scale}.profile")
            text = self.online(bench, threads, scale, path, context).dump
            _write(path, text)
            self.merge_inputs.append(path)
            texts.append(text)
        self.merged = os.path.join(work, "merged.profile")
        self.expected_merged = merge_dump_texts(texts)
        self.routine, points = top_fittable(self.expected_merged)
        growth, r2 = select_growth(points)
        self.expected_fit = f"{self.routine}: {growth} (R^2 = {r2:.3f}, {len(points)} points)"
        self.counts = {"fit.points": len(points)}

    def make_op(self) -> Op:
        order = list(self.traces)
        self.order.shuffle(order)

        def read() -> List[Tuple[int, str]]:
            results = []
            for label, trace, dump, context, _ in order:
                self.label(label)
                results.append(cli_call(self.cli, self.analyze_argv(trace, dump, context)))
            self.label("")
            return results

        def write() -> List[Tuple[int, str]]:
            merged = cli_call(self.cli, ["merge", "-o", self.merged, *self.merge_inputs])
            return [merged, cli_call(self.cli, ["fit", self.merged, self.routine])]

        def check(results: List[object]) -> Optional[str]:
            for (_, _, dump, _, expected), result in zip(order, results[0]):
                problem = self.check_analysis(result, dump, expected)
                if problem:
                    return problem
            (merge_code, merge_out), (fit_code, fit_out) = results[1]
            if merge_code != 0:
                return f"merge exited {merge_code}: {merge_out.strip()}"
            if _read(self.merged) != self.expected_merged:
                return "merged profile differs from the independent merge"
            if fit_code != 0 or self.expected_fit not in fit_out:
                return f"fit printed {fit_out.strip()[-120:]!r}, want {self.expected_fit!r}"
            return None

        return Op([("read", read), ("write", write)], check,
                  ",".join(trace[0] for trace in order),
                  _remove(self.merged, *(trace[2] for trace in self.traces)))

    def traced_extras(self, op: Op) -> Dict[str, float]:
        return self.decode_sample([trace[1] for trace in self.traces])


def _parse_dump(text: str):
    """(flags, globals, {(routine, thread): [induced, {size: stats}]})."""
    lines = text.splitlines()
    if lines[0] != "repro-profile 1":
        raise ValueError("not a profile dump")
    lower_bound, induced, profiles = False, [0, 0], {}
    current = None
    for line in lines[1:]:
        tag, _, rest = line.partition(" ")
        if tag == "F":
            lower_bound = "lower_bound=1" in rest.split()
        elif tag == "G":
            induced = [int(part) for part in rest.split()]
        elif tag == "P":
            name, thread, thread_sum, external_sum = rest.split("\t")
            current = profiles.setdefault((name, int(thread)), [[0, 0], {}])
            current[0][0] += int(thread_sum)
            current[0][1] += int(external_sum)
        elif tag == "S":
            size, *fields = (int(part) for part in rest.split())
            current[1][size] = fields
    return lower_bound, induced, profiles


def merge_dump_texts(texts: List[str]) -> str:
    """Merge ``repro-profile 1`` dumps straight from their text.

    The benchmark's own reading of the format, independent of
    ``repro.farm.merge``: per (routine, thread, size) calls, sums and
    sums of squares add and min/max combine; induced tallies add.
    """
    lower_bound, induced, merged = False, [0, 0], {}
    for text in texts:
        flag, counters, profiles = _parse_dump(text)
        lower_bound |= flag
        induced = [a + b for a, b in zip(induced, counters)]
        for key, (sums, points) in profiles.items():
            into = merged.setdefault(key, [[0, 0], {}])
            into[0] = [a + b for a, b in zip(into[0], sums)]
            for size, (calls, low, high, total, squares) in points.items():
                have = into[1].get(size)
                into[1][size] = ([calls, low, high, total, squares] if have is None
                                 else [have[0] + calls, min(have[1], low),
                                       max(have[2], high), have[3] + total,
                                       have[4] + squares])
    lines = ["repro-profile 1", f"F lower_bound={int(lower_bound)}",
             f"G {induced[0]} {induced[1]}"]
    for (name, thread), (sums, points) in sorted(merged.items()):
        lines.append(f"P {name}\t{thread}\t{sums[0]}\t{sums[1]}")
        for size in sorted(points):
            lines.append("S " + " ".join(str(v) for v in (size, *points[size])))
    return "\n".join(lines) + "\n"


def top_fittable(text: str) -> Tuple[str, List[Tuple[int, int]]]:
    """The costliest routine with at least three distinct sizes.

    Returns its name and worst-case plot: per size, the largest
    ``cost_max`` over threads.
    """
    _, _, profiles = _parse_dump(text)
    worst: Dict[str, Dict[int, int]] = {}
    cost: Dict[str, int] = {}
    for (name, _), (_, points) in profiles.items():
        plot = worst.setdefault(name, {})
        for size, (_, _, high, total, _) in points.items():
            plot[size] = max(plot.get(size, high), high)
            cost[name] = cost.get(name, 0) + total
    fittable = [name for name, plot in worst.items() if len(plot) >= 3]
    if not fittable:
        raise RuntimeError("no fittable routine in the merged profile")
    routine = min(fittable, key=lambda name: (-cost[name], name))
    return routine, sorted(worst[routine].items())


#: the growth models ``repro fit`` chooses among, slowest growth first
GROWTH_MODELS: List[Tuple[str, Callable[[float], float]]] = [
    ("O(1)", lambda n: 1.0),
    ("O(log n)", lambda n: math.log2(n + 1.0)),
    ("O(sqrt n)", math.sqrt),
    ("O(n)", lambda n: n),
    ("O(n log n)", lambda n: n * math.log2(n + 1.0)),
    ("O(n^2)", lambda n: n * n),
    ("O(n^2 log n)", lambda n: n * n * math.log2(n + 1.0)),
    ("O(n^3)", lambda n: n * n * n),
    ("O(2^n)", lambda n: 2.0 ** min(n, 60.0)),
]
#: a slower-growing model within this share of the best residual wins
GROWTH_TOLERANCE = 0.10


def select_growth(points: List[Tuple[int, int]]) -> Tuple[str, float]:
    """The growth class ``repro fit`` must name for a plot, and its R^2.

    The benchmark's own least squares, independent of ``repro.curvefit``:
    fit ``cost = a * basis(n) + b`` per model with the slope clamped at
    0, then take the slowest-growing model whose residual is within
    ``GROWTH_TOLERANCE`` of the best one.
    """
    costs = [float(cost) for _, cost in points]
    mean_y = sum(costs) / len(costs)
    tss = sum((y - mean_y) ** 2 for y in costs)
    fits = []
    for name, basis in GROWTH_MODELS:
        xs = [basis(size) for size, _ in points]
        mean_x = sum(xs) / len(xs)
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, costs))
        a = max(sxy / sxx, 0.0) if sxx else 0.0
        b = mean_y - a * mean_x
        fits.append((name, sum((y - (a * x + b)) ** 2 for x, y in zip(xs, costs))))
    threshold = min(rss for _, rss in fits) * (1.0 + GROWTH_TOLERANCE) + 1e-12
    name, rss = next(fit for fit in fits if fit[1] <= threshold)
    return name, 1.0 if tss == 0.0 else max(0.0, 1.0 - rss / tss)


# -- observatory-history -----------------------------------------------------


#: growth classes the generator draws from, far enough apart that small
#: noise never changes which one a fit names
CLASSES: Dict[str, Callable[[float], float]] = {
    "O(log n)": lambda n: 400.0 * math.log2(n + 1.0),
    "O(n)": lambda n: 40.0 * n,
    "O(n^2)": lambda n: 2.0 * n * n,
    "O(n^3)": lambda n: 0.05 * n ** 3,
}
VERDICTS = ("regressed", "improved", "slower", "faster", "added", "removed")


class ObservatoryHistory(Workload):
    """An operator watching a run history for growth-rate drift."""

    name = "observatory-history"
    ROUTINES = 30
    SIZES = [8 * (k + 1) ** 2 for k in range(8)]
    HISTORY = 3
    NOISE = 0.005
    #: fresh runs ingested per write phase: one ingest is about 37 ms, short
    #: enough that a single burst on the host decides the phase's p90
    INGESTS = 3
    #: fresh runs the write store takes before it starts over (every 20 ops)
    WRITE_CAPACITY = 120

    def setup(self, work: str, seed: int) -> None:
        self._import()
        self.observatory = importlib.import_module("repro.observatory")
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)
        self.work = work
        names = list(CLASSES)
        self.classes = {f"routine_{k:02d}": rng.choice(names)
                        for k in range(self.ROUTINES)}
        linear = sorted(name for name, cls in self.classes.items() if cls == "O(n)")
        if not linear:
            self.classes["routine_00"] = "O(n)"
            linear = ["routine_00"]
        self.changed = rng.choice(linear)
        self.change_at = rng.randrange(1, self.HISTORY)
        self.read_store = os.path.join(work, "read-store")
        store = self.observatory.ObservatoryStore(self.read_store)
        for run in range(self.HISTORY):
            path = os.path.join(work, f"history-{run}.profile")
            _write(path, self.dump_text(run >= self.change_at))
            self.observatory.ingest_path(store, path, run_id=f"history-{run}")
        store.close()
        # the read store stays read-only: op cost cannot grow with op count
        history = os.path.join(self.read_store, self.observatory.HISTORY_FILENAME)
        os.chmod(history, stat.S_IRUSR | stat.S_IRGRP)
        self.write_root = os.path.join(work, "write-store")
        self.write_store = self._fresh_write_store()
        self.expected_alert = [self.changed, "regressed", "O(n)", "O(n^2)"]
        with self.observatory.ObservatoryStore(self.read_store) as opened:
            runs = opened.runs()
            curves = sum(len(opened.curves_for_run(info.seq)) for info in runs)
            points = sum(len(opened.points_for(info.seq, routine))
                         for info in runs for routine in opened.routines())
        self.counts = {"history.runs": len(runs), "curves": curves, "points": points}
        self.ingested = 0

    def _fresh_write_store(self):
        """Open a write store holding a copy of the fixed history."""
        shutil.rmtree(self.write_root, ignore_errors=True)
        shutil.copytree(self.read_store, self.write_root)
        os.chmod(os.path.join(self.write_root, self.observatory.HISTORY_FILENAME),
                 stat.S_IRUSR | stat.S_IWUSR)
        return self.observatory.ObservatoryStore(self.write_root)

    def dump_text(self, changed: bool) -> str:
        """One seeded ``repro-profile 1`` dump of the generated routines."""
        lines = ["repro-profile 1", "F lower_bound=0", "G 0 0"]
        for name, cls in sorted(self.classes.items()):
            if changed and name == self.changed:
                cls = "O(n^2)"
            lines.append(f"P {name}\t0\t0\t0")
            for size in self.SIZES:
                cost = int(CLASSES[cls](size)
                           * (1.0 + self.rng.uniform(-self.NOISE, self.NOISE)))
                lines.append(f"S {size} 1 {cost} {cost} {cost} {cost * cost}")
        return "\n".join(lines) + "\n"

    def alert_rows(self, out: str) -> List[List[str]]:
        """The rows of the last alert-feed table in ``out``."""
        section = out.rsplit("Alert feed", 1)[-1]
        rows = []
        for line in section.splitlines():
            cells = re.split(r"\s{2,}", line.strip())
            if len(cells) >= 8 and cells[1] in VERDICTS:
                rows.append(cells)
        return rows

    def make_op(self) -> Op:
        if len(self.write_store) >= self.HISTORY + self.WRITE_CAPACITY:
            # start over from the fixed history, untimed, so that peak RSS
            # does not grow with the number of ops a run gets through
            self.write_store.close()
            self.write_store = self._fresh_write_store()
        fresh: List[Tuple[str, str]] = []      # (path, run id) per ingest
        before = [0]

        def prepare() -> None:
            """New dumps under new run ids, so every execution adds runs."""
            fresh.clear()
            for k in range(self.INGESTS):
                path = os.path.join(self.work, f"fresh-{k}.profile")
                _write(path, self.dump_text(changed=True))
                fresh.append((path, f"fresh-{self.ingested:06d}"))
                self.ingested += 1
            before[0] = len(self.write_store)

        alerts = ["observe", "alerts", "--store", self.read_store]
        report = ["observe", "report", "--store", self.read_store]

        def read() -> List[Tuple[int, str]]:
            return [cli_call(self.cli, alerts), cli_call(self.cli, report)]

        def write() -> None:
            for path, run_id in fresh:
                self.observatory.ingest_path(self.write_store, path, run_id=run_id)

        def check(results: List[object]) -> Optional[str]:
            for code, out in results[0]:
                if code != 0:
                    return f"observe exited {code}"
                rows = self.alert_rows(out)
                want = self.expected_alert
                if (len(rows) != 1 or rows[0][:4] != want
                        or rows[0][5:7] != [str(self.HISTORY), "1"]):
                    return f"alerts {rows} are not the seeded regression {want}"
            if not (all(self.write_store.has_run(run_id) for _, run_id in fresh)
                    and len(self.write_store) == before[0] + self.INGESTS):
                return f"write store did not gain runs {[run for _, run in fresh]}"
            return None

        return Op([("read", read), ("write", write)], check,
                  f"{self.INGESTS} ingests", prepare)


WORKLOADS = {cls.name: cls for cls in (ProfileMd, ReanalyzeMix, ObservatoryHistory)}
