"""Pipeline benchmark of the aprof reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload profile-md --seed 1 --seconds 35 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``profile-md`` — ``repro record 350.md`` then ``repro analyze``; the
  seed draws the five scales the ops cycle through, and their order;
* ``reanalyze-mix`` — analyse three recorded traces, merge one
  program's profiles across scales and fit its top routine; the seed
  draws every trace scale and the analysis order within each op;
* ``observatory-history`` — read a fixed drift history through
  ``repro observe alerts``/``report`` and ingest a fresh run into an
  open store; the seed draws the routines' growth classes, which one
  regresses, at which run, and the cost noise.

One process, one client, a closed loop: each op starts when the last
one has been checked.  Each op is executed twice, back to back on the
same inputs, and its sample is the faster execution; ``attempted`` and
``failed`` count executions, each of which is checked.  Every timing is
wall time converted to ms at nominal host speed (see ``hostspeed.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics (see
``spans.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import (  # noqa: E402
    SleepMeter, Slept, nominal_ms, normalised_call, reference_ms, speed_factor,
)
from spans import Tracer, layer_totals, render_tree  # noqa: E402
from workloads import WORKLOADS, Op, ReanalyzeMix  # noqa: E402

#: set-up runs per benchmark run; ``setup_s`` is their median
SETUP_REPS = 5
#: untimed ops before measuring
WARMUP_OPS = 3
#: executions of each measured op, back to back on the same inputs; the
#: op's sample is the fastest (``perfbench/README.md``, "Best of two")
REPEATS = 2
#: per-layer metric -> span layer; medians over traced ops
LAYER_SPANS = {
    "record_ms": "record",
    "analyze.trms_ms": "analyze.trms",
    "analyze.rms_ms": "analyze.rms",
    "dump_ms": "dump",
    "load_ms": "load",
    "merge_ms": "merge",
    "fit_ms": "fit",
    "report_ms": "report",
    "store.open_ms": "store.open",
    "store.add_ms": "store.add",
    "drift_ms": "drift",
    "dashboard_ms": "dashboard",
    "cli.self_ms": "op",
}
LAYER_SPANS.update({f"analyze.{kernel}_ms.{label}": f"analyze.{kernel}.{label}"
                    for label, *_ in ReanalyzeMix.TRACES for kernel in ("trms", "rms")})


def _import_program() -> None:
    """Drop every ``repro`` module so that set-up pays for the imports."""
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.cli  # noqa: F401


def _vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _reset_hwm() -> bool:
    """Reset the peak-RSS mark (Linux ``clear_refs`` 5); False if unavailable."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as stream:
            stream.write("5")
        return True
    except OSError:
        return False


def _unit(name: str) -> str:
    if name == "setup_s":
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "tracing.overhead":
        return "x"
    if name == "trace.bytes":
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    return "ms" if "_ms" in name else "count"


def _pct(values: List[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


class Sample:
    __slots__ = ("phases", "op_ms", "raw_ms", "factor", "spans", "extras")

    def __init__(self, phases: Dict[str, float], raw_ms: float, factor: float):
        self.phases = phases
        self.op_ms = sum(phases.values())
        self.raw_ms = raw_ms
        self.factor = factor
        self.spans: Optional[Tuple[Dict[str, float], Dict[str, int]]] = None
        self.extras: Dict[str, float] = {}


def fastest(runs: List[Sample]) -> Sample:
    """An op's sample: each phase, and the op total, at its fastest execution."""
    best = min(runs, key=lambda sample: sample.op_ms)
    best.phases = {name: min(run.phases[name] for run in runs) for name in best.phases}
    return best


def run_op(op: Op, meter: SleepMeter,
           tracer: Optional[Tracer]) -> Tuple[Optional[Sample], Optional[str]]:
    """Time one execution of an op between two reference passes, then check it."""
    op.prepare()
    gc.collect()
    before = reference_ms()
    if tracer is not None:
        tracer.begin_op()
    results: List[object] = []
    phases: Dict[str, Tuple[float, Slept]] = {}     # name -> (raw ms, sleeps)
    error: Optional[str] = None
    start = last = time.perf_counter()
    mark = op_mark = meter.reading()
    try:
        for name, phase in op.phases:
            results.append(phase())
            now = time.perf_counter()
            phases[name] = ((now - last) * 1000.0, meter.since(mark))
            last, mark = now, meter.reading()
    except Exception as exc:  # a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:  # argparse rejecting an argv
        error = f"SystemExit {exc.code}"
    raw_ms = (time.perf_counter() - start) * 1000.0
    op_slept_ms = meter.since(op_mark)[0]
    spans = tracer.end_op() if tracer is not None else None
    factor = speed_factor(before, reference_ms())
    if error is None:
        try:
            error = op.check(results)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        return None, error
    sample = Sample({name: nominal_ms(ms, slept, factor)
                     for name, (ms, slept) in phases.items()}, raw_ms, factor)
    sample.extras["sleep_ms"] = op_slept_ms
    if spans is not None:
        sample.spans = layer_totals(spans, factor)
    return sample, None


def end_to_end(samples: List[Sample]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    series = {"op": [s.op_ms for s in samples]}
    for phase in ("read", "write"):
        series[phase] = [s.phases[phase] for s in samples]
    for name, values in series.items():
        metrics[f"{name}_ms_p50"] = statistics.median(values)
        metrics[f"{name}_ms_p90"] = _pct(values, 90)
    return metrics


def per_layer(workload, untraced: List[Sample], traced: List[Sample],
              tracer: Tracer) -> Dict[str, float]:
    def median_of(get) -> float:
        return statistics.median([get(s) for s in traced]) if traced else 0.0

    metrics = {name: median_of(lambda s, layer=layer: s.spans[0].get(layer, 0.0))
               for name, layer in LAYER_SPANS.items()}
    metrics["fit.calls"] = median_of(lambda s: s.spans[1].get("fit", 0))
    opens = median_of(lambda s: s.spans[1].get("store.open", 0))
    for name in ("history.runs", "curves", "points", "fit.points"):
        metrics[name] = workload.counts.get(name, 0)
    runs = metrics["history.runs"]
    metrics["store.open_ms_per_run"] = (metrics["store.open_ms"] / opens / runs
                                        if opens and runs else 0.0)
    for name in ("vm.run_ms", "record.events", "trace.bytes", "sleep_ms"):
        metrics[name] = median_of(lambda s, name=name: s.extras.get(name, 0.0))
    metrics["trace.encode_ms"] = (metrics["record_ms"] - metrics["vm.run_ms"]
                                  if metrics["vm.run_ms"] else 0.0)
    decode_ms = sum(s.extras.get("decode.ms", 0.0) for s in traced)
    decode_events = sum(s.extras.get("decode.events", 0) for s in traced)
    metrics["decode.events_per_s"] = decode_events / decode_ms * 1000.0 if decode_ms else 0.0
    metrics["tracing.overhead"] = (
        statistics.median([s.op_ms for s in traced])
        / statistics.median([s.op_ms for s in untraced])
        if traced and untraced else 0.0)
    metrics["layers.absent"] = len(tracer.absent)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    # the program's own scratch files (farm heartbeats) stay in the checkout
    tempfile.tempdir = work
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(args, work: str) -> Dict:
    meter = SleepMeter()
    meter.install()
    try:
        return _measure(args, work, meter)
    finally:
        meter.uninstall()


def _measure(args, work: str, meter: SleepMeter) -> Dict:
    workload = WORKLOADS[args.workload](meter)
    setup_s = []
    for rep in range(SETUP_REPS):
        rep_dir = os.path.join(work, f"setup-{rep}")
        os.makedirs(rep_dir)

        def set_up(rep_dir=rep_dir) -> None:
            _import_program()
            workload.setup(rep_dir, args.seed)
        ms, raw_ms, _, _ = normalised_call(meter, set_up)
        setup_s.append(ms / 1000.0)
        print(f"setup {rep}: {ms / 1000.0:.3f} s (raw {raw_ms / 1000.0:.3f} s)")
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        tracer = Tracer(meter)
        tracer.install()
        for entry in tracer.absent:
            print(f"layer entry point absent: {entry}")
        workload.tracer = tracer
    for index in range(WARMUP_OPS):
        _, error = run_op(workload.make_op(), meter, tracer)
        if error:
            print(f"warm-up op failed: {error}")

    hwm_reset = _reset_hwm()
    if not hwm_reset:
        print("note: cannot reset the peak-RSS mark; peak_rss_mb includes set-up")
    untraced: List[Sample] = []
    traced: List[Sample] = []
    ops = attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        op = workload.make_op()
        ops += 1
        trace_this = tracer is not None and ops % 2 == 0
        runs: List[Sample] = []
        for _ in range(REPEATS):
            attempted += 1
            sample, error = run_op(op, meter, tracer if trace_this else None)
            if error is not None:
                failed += 1
                print(f"op {ops} [{op.label}] FAILED: {error}")
            else:
                runs.append(sample)
        if len(runs) < REPEATS:
            continue
        executions = "/".join(f"{run.op_ms:.2f}" for run in runs)
        sample = fastest(runs)
        if trace_this:
            sample.extras.update(workload.traced_extras(op))
            traced.append(sample)
        else:
            untraced.append(sample)
        phases = "  ".join(f"{name} {ms:.2f}" for name, ms in sample.phases.items())
        print(f"op {ops} [{op.label}]{' traced' if trace_this else ''}: "
              f"{sample.op_ms:.2f} ms of {executions} ({phases}; "
              f"raw {sample.raw_ms:.2f} ms, speed x{sample.factor:.3f})")
    peak_rss_mb = _vm_hwm_kb() / 1024.0

    if tracer is None:
        values = end_to_end(untraced) if untraced else {}
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = peak_rss_mb
        raw = [s.raw_ms for s in untraced]
        if raw:
            print(f"raw (not normalised, not gated): op p50 {statistics.median(raw):.2f} ms, "
                  f"p90 {_pct(raw, 90):.2f} ms over {len(raw)} ops")
    else:
        if tracer.last_op:
            print("spans of the last traced op (ms, not normalised):")
            print(render_tree(tracer.last_op))
        values = per_layer(workload, untraced, traced, tracer)
        values.update(workload.traced_finale(tracer, work))
        tracer.uninstall()
    samples = len(untraced) + len(traced)
    print(f"{samples} ops measured ({attempted} executions checked, {failed} failed), "
          f"{len(traced)} of them traced")
    return {
        "correct": failed == 0 and samples > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in sorted(values.items())},
    }


if __name__ == "__main__":
    sys.exit(main())
