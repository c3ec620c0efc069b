"""Host-speed normalisation: a fixed pure-Python reference pass.

The host this benchmark runs on is shared, and its speed drifts by
tens of percent between minutes.  Every timed section is therefore
bracketed by two runs of a fixed reference pass, one immediately
before and one immediately after, and its wall time is converted to
*milliseconds at nominal host speed*::

    factor = NOMINAL_REF_MS / mean(ref_before, ref_after)
    nominal = (wall - slept) * factor + charged

``slept`` is the wall time the program spent inside ``time.sleep``
during the section and ``charged`` the same sleeps at their nominal
length (see ``SleepMeter``).  A sleep does not run at the host's
speed: a zero-length ``time.sleep(0)`` lasts the kernel's timer
slack, about 50 us, however fast the host is, so scaling it with the
rest would turn every change in host speed into a change of the
figure.  Nor is it steady: a sleep yields the CPU, and on a busy
host it returns only when the scheduler gets back to it, which is
the host's load, not the program's cost.  So each sleep is charged
what it asked for plus ``NOMINAL_SLEEP_MS``.

``NOMINAL_REF_MS`` is the pass's median time on the host the
benchmark was calibrated on (2 vCPU, CPython 3.11).  It is a constant
on purpose: changing it rescales every normalised figure, so it
changes only together with a re-measured baseline.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Optional, Tuple

#: median time of one reference pass on the calibration host, in ms
NOMINAL_REF_MS = 13.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _arithmetic() -> int:
    acc = 0
    for i in range(45_000):
        acc = (acc * 31 + i) & 0xFFFFF
    return acc


def _allocation() -> int:
    table: dict = {}
    kept = []
    acc = 0
    for i in range(6_000):
        cell = _Cell(i, i & 255)
        table[i & 4095] = cell
        kept.append(cell.value)
        probe = table.get((i * 7) & 4095)
        if probe is not None:
            acc += probe.key
    return acc


class _Machine:
    """A toy register machine: the dispatch pattern of an interpreter."""

    def __init__(self) -> None:
        self.regs = [0] * 8
        self.mem: dict = {}
        self.pc = 0

    def step(self, op: int, a: int, b: int):
        if op == 0:
            self.regs[a] = self.regs[b] + 1
        elif op == 1:
            self.mem[self.regs[a] & 1023] = self.regs[b]
        elif op == 2:
            self.regs[a] = self.mem.get(self.regs[b] & 1023, 0)
        else:
            self.regs[a] = (self.regs[a] * 3 + b) & 0xFFFF
        self.pc += 1
        return op, self.pc


def _dispatch() -> int:
    machine = _Machine()
    program = [(i % 4, (i * 3) % 8, (i * 5) % 8) for i in range(64)]
    trace = []
    for k in range(10_000):
        op, a, b = program[k & 63]
        result = machine.step(op, a, b)
        if result[1] & 15 == 0:
            trace.append(result)
    return len(trace)


def reference_ms() -> float:
    """Run one reference pass; its wall time in ms.

    A pass is three short loops of the kinds of work the pipeline
    does: integer arithmetic, small-object allocation with dict
    probes, and interpreter-style method dispatch.  No single kind
    tracked the host well in every state it drifts through (a
    neighbour's memory-heavy phase slows allocation more than
    arithmetic, for one); their sum did.  The collector is off while
    it runs, so heap size does not leak into the reading.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arithmetic()
        _allocation()
        _dispatch()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if collecting:
            gc.enable()


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier from wall time to nominal-host time."""
    return NOMINAL_REF_MS / ((before_ms + after_ms) / 2.0)


#: a sleep's cost beyond what it asks for: the median wall time of one
#: ``time.sleep(0)`` on the calibration host (timer slack and the call), ms
NOMINAL_SLEEP_MS = 0.057

#: ``(slept_ms, charged_ms)``: a section's sleeps as measured and as charged
Slept = Tuple[float, float]


def nominal_ms(raw_ms: float, slept: Slept, factor: float) -> float:
    """Wall time at nominal host speed, with the program's sleeps charged."""
    slept_ms, charged_ms = slept
    return (raw_ms - slept_ms) * factor + charged_ms


class SleepMeter:
    """Adds up the time spent in ``time.sleep`` while installed.

    ``slept_ms`` is the wall time inside the calls, ``charged_ms`` the
    same calls at nominal length.  The simulated database under the
    observatory yields with ``time.sleep(0)`` once per buffered write,
    which is about 40% of an ``observatory-history`` op.
    """

    def __init__(self) -> None:
        self.slept_ms = 0.0
        self.charged_ms = 0.0
        self._original: Optional[Callable[[float], None]] = None

    def reading(self) -> Slept:
        return self.slept_ms, self.charged_ms

    def since(self, mark: Slept) -> Slept:
        """The sleeps since ``mark``, an earlier ``reading()``."""
        return self.slept_ms - mark[0], self.charged_ms - mark[1]

    def install(self) -> None:
        original = self._original = time.sleep
        meter = self

        def sleep(seconds: float) -> None:
            start = time.perf_counter()
            try:
                original(seconds)
            finally:
                meter.slept_ms += (time.perf_counter() - start) * 1000.0
                meter.charged_ms += seconds * 1000.0 + NOMINAL_SLEEP_MS

        time.sleep = sleep

    def uninstall(self) -> None:
        if self._original is not None:
            time.sleep = self._original
            self._original = None


def normalised_call(meter: SleepMeter,
                    fn: Callable[[], object]) -> Tuple[float, float, float, object]:
    """Run ``fn`` between two reference passes.

    Returns ``(nominal_ms, raw_ms, factor, result)``.
    """
    before = reference_ms()
    mark = meter.reading()
    start = time.perf_counter()
    result = fn()
    raw_ms = (time.perf_counter() - start) * 1000.0
    slept = meter.since(mark)
    factor = speed_factor(before, reference_ms())
    return nominal_ms(raw_ms, slept, factor), raw_ms, factor, result
