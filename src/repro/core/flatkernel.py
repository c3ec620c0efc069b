"""The flat-array latest-access kernel: offline RMS and TRMS analysis.

This is the one offline copy of the paper's algorithm.  Three
observations make it dramatically cheaper than an object-per-event
replay through the online profilers:

1. **Events decode as columns, not objects.**  A v2 chunk becomes three
   parallel arrays (kind byte, thread id, argument) in a handful of
   C-level strided copies (:func:`repro.farm.binfmt.decode_chunk_columns`)
   — no ``Event`` tuples, no ``EventKind`` re-wrapping, no per-record
   string-table lookups.  ``CALL`` arguments stay interned routine ids;
   names are materialised only when an activation is emitted.

2. **Global order turns the induced-access test into one probe.**
   Replaying events in increasing global position means every write at
   a position below the current read has already been seen, so "was the
   cell written by someone else since this thread last touched it?" is
   one lookup in a running
   :class:`~repro.core.shadow.PackedLatestWrite` dict.

3. **Shadow stacks flatten to parallel columns.**  A pending activation
   is a row of :class:`~repro.core.stack.FlatStack` — six ``array('q')``
   columns the kernel binds to locals, so the per-event work is integer
   compares, dict probes and in-place column updates.

The kernel analyses every thread of the trace in a *single interleaved
pass*, keeping per-thread stacks and latest-access tables exactly like
the online profiler keeps per-thread states.  ``metric`` picks the
input-size metric: ``"trms"`` stamps and probes the global latest-write
table (the multithreaded extension), ``"rms"`` never touches it — kernel
writes and other threads' writes are then invisible, as they are to
aprof-rms.  Either way the output is **bit-identical** to the online
:class:`~repro.core.rms.RmsProfiler` / :class:`~repro.core.trms.TrmsProfiler`
— enforced by the farm differential tests and the property-based kernel
differentials.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .context import compose_context
from .events import Event, EventKind
from .profile_data import ProfileDatabase
from .shadow import PackedLatestWrite
from .stack import FlatStack

__all__ = ["METRICS", "FlatAnalyzer", "analyze_columns_flat", "analyze_events_flat"]

#: the input-size metrics the kernel computes
METRICS = ("rms", "trms")

#: Analyzer-allocated name ids (per-thread roots, composed contexts)
#: live in a namespace far above any real trace string table, so the
#: external ``names`` table may *grow while analysis is running* (the
#: streaming tailer appends sidecar names between chunks) without ever
#: colliding with internal ids.
_EXTRA_BASE = 1 << 40

_CALL = int(EventKind.CALL)
_RETURN = int(EventKind.RETURN)
_READ = int(EventKind.READ)
_WRITE = int(EventKind.WRITE)
_KERNEL_READ = int(EventKind.KERNEL_READ)
_KERNEL_WRITE = int(EventKind.KERNEL_WRITE)
_THREAD_SWITCH = int(EventKind.THREAD_SWITCH)
_COST = int(EventKind.COST)

#: per-thread root activations, named like the online profilers' roots
_ROOT_NAME = "<root:{thread}>"


class _FlatThreadState:
    """One analysed thread: flat stack, latest-access table, cost."""

    __slots__ = ("thread", "stack", "last", "cost")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = FlatStack()
        #: cell -> global position of this thread's latest access
        self.last: Dict[int, int] = {}
        self.cost = 0


class FlatAnalyzer:
    """Single-pass flat-array RMS or TRMS analysis over event columns.

    Every thread that appears in the fed columns is analysed, in
    first-appearance order.

    Args:
        names: the trace string table ``CALL`` arguments index into.
        db: the database activations are emitted into.
        context_sensitive: key profiles by calling context; contexts
            are composed once per distinct (parent, routine) pair and
            interned, so the hot path stays integer-only.
        metric: ``"trms"`` (default) or ``"rms"``.

    Feed columns in increasing global-position order (chunks in trace
    order), then call :meth:`finish` exactly once.
    """

    def __init__(
        self,
        names: Sequence[str],
        db: ProfileDatabase,
        context_sensitive: bool = False,
        metric: str = "trms",
    ):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.db = db
        self.context_sensitive = context_sensitive
        #: routine id -> name: the trace string table, held by
        #: *reference* when given a list so the owner may append names
        #: mid-run (streaming).  Ids the analyzer allocates itself
        #: (per-thread roots, composed contexts) live in ``_extra`` at
        #: ``_EXTRA_BASE + index`` so they never collide with table
        #: growth.
        self.names: List[str] = names if isinstance(names, list) else list(names)
        self._extra: List[str] = []
        self._ctx_ids: Dict[Tuple[int, int], int] = {}
        self.states: Dict[int, _FlatThreadState] = {}
        #: thread order for :meth:`finish` unwinding (first appearance)
        self._order: List[int] = []
        self.events_analyzed = 0
        self.wts = PackedLatestWrite()

    def _ensure(self, thread: int) -> _FlatThreadState:
        state = _FlatThreadState(thread)
        root_id = _EXTRA_BASE + len(self._extra)
        self._extra.append(_ROOT_NAME.format(thread=thread))
        state.stack.push(root_id, 0, 0)
        self.states[thread] = state
        self._order.append(thread)
        return state

    def _name_of(self, ident: int) -> str:
        """Resolve a routine id from either namespace."""
        if ident >= _EXTRA_BASE:
            return self._extra[ident - _EXTRA_BASE]
        return self.names[ident]

    def feed(self, columns) -> None:
        """Analyse one :class:`~repro.farm.binfmt.ChunkColumns` batch."""
        # Bind everything the loop touches to locals; rebind the current
        # thread's columns only when the event stream switches threads
        # (events arrive in per-thread runs, so this almost never fires).
        db = self.db
        names = self.names
        extra = self._extra
        extra_base = _EXTRA_BASE
        ctx_ids = self._ctx_ids
        context_sensitive = self.context_sensitive
        states = self.states
        trms = self.metric == "trms"
        wts = self.wts
        wts_get = wts.get
        add_activation = db.add_activation
        induced_thread = 0
        induced_external = 0
        position = columns.first_pos
        current_thread: Optional[int] = None
        state: Optional[_FlatThreadState] = None
        s_last = s_last_get = s_rtn = s_ts = s_cost = None
        s_partial = s_ind_thread = s_ind_external = None

        for kind, thread, arg in zip(columns.kinds, columns.threads, columns.args):
            if thread != current_thread:
                current_thread = thread
                state = states.get(thread)
                if state is None:
                    state = self._ensure(thread)
                stack = state.stack
                s_last = state.last
                s_last_get = s_last.get
                s_rtn = stack.rtn
                s_ts = stack.ts
                s_cost = stack.cost
                s_partial = stack.partial
                s_ind_thread = stack.induced_thread
                s_ind_external = stack.induced_external
            if kind == _READ or kind == _KERNEL_READ:
                last = s_last_get(arg, -1)
                packed = wts_get(arg) if trms else None
                if packed is not None and (packed >> 1) > last:
                    # Induced first-access: the latest write to the cell
                    # is foreign (or kernel) and unseen by this thread.
                    s_partial[-1] += 1
                    if packed & 1:
                        s_ind_external[-1] += 1
                        induced_external += 1
                    else:
                        s_ind_thread[-1] += 1
                        induced_thread += 1
                elif last < s_ts[-1]:
                    # Plain first-access for the topmost activation.
                    s_partial[-1] += 1
                    if last >= 0:
                        ancestor = bisect_right(s_ts, last) - 1
                        if ancestor >= 0:
                            s_partial[ancestor] -= 1
                s_last[arg] = position
            elif kind == _WRITE:
                s_last[arg] = position
                if trms:
                    wts[arg] = position << 1
            elif kind == _CALL:
                if context_sensitive:
                    parent = s_rtn[-1]
                    rtn_id = ctx_ids.get((parent, arg))
                    if rtn_id is None:
                        rtn_id = extra_base + len(extra)
                        parent_name = (extra[parent - extra_base]
                                       if parent >= extra_base else names[parent])
                        extra.append(compose_context(parent_name, names[arg]))
                        ctx_ids[(parent, arg)] = rtn_id
                else:
                    rtn_id = arg
                s_rtn.append(rtn_id)
                s_ts.append(position)
                s_cost.append(state.cost)
                s_partial.append(0)
                s_ind_thread.append(0)
                s_ind_external.append(0)
            elif kind == _RETURN:
                if len(s_rtn) > 1:
                    partial = s_partial.pop()
                    ind_thread = s_ind_thread.pop()
                    ind_external = s_ind_external.pop()
                    s_ts.pop()
                    entry_cost = s_cost.pop()
                    rtn_id = s_rtn.pop()
                    s_partial[-1] += partial
                    s_ind_thread[-1] += ind_thread
                    s_ind_external[-1] += ind_external
                    add_activation(
                        extra[rtn_id - extra_base] if rtn_id >= extra_base
                        else names[rtn_id],
                        thread, partial, state.cost - entry_cost,
                        ind_thread, ind_external,
                    )
            elif kind == _COST:
                state.cost += arg
            elif kind == _KERNEL_WRITE and trms:
                wts[arg] = (position << 1) | 1
            # THREAD_SWITCH: no per-thread effect (position still advances)
            position += 1

        db.global_induced_thread += induced_thread
        db.global_induced_external += induced_external
        self.events_analyzed += columns.events

    def finish(self) -> None:
        """Unwind every pending activation, including implicit roots."""
        name_of = self._name_of
        add_activation = self.db.add_activation
        for thread in self._order:
            state = self.states[thread]
            stack = state.stack
            while stack:
                rtn_id, _, entry_cost, partial, ind_thread, ind_external = stack.pop()
                if stack:
                    stack.partial[-1] += partial
                    stack.induced_thread[-1] += ind_thread
                    stack.induced_external[-1] += ind_external
                add_activation(
                    name_of(rtn_id), thread, partial, state.cost - entry_cost,
                    ind_thread, ind_external,
                )


def analyze_columns_flat(
    column_blocks: Iterable,
    names: Sequence[str],
    db: ProfileDatabase,
    context_sensitive: bool = False,
    metric: str = "trms",
) -> int:
    """Run the flat kernel over column blocks; returns events analysed.

    ``column_blocks`` must arrive in increasing global-position order
    (chunks in trace order, as the v2 chunk index lists them, or one
    block from :func:`~repro.farm.binfmt.columns_from_events`).
    """
    analyzer = FlatAnalyzer(names, db,
                            context_sensitive=context_sensitive, metric=metric)
    for columns in column_blocks:
        analyzer.feed(columns)
    analyzer.finish()
    return analyzer.events_analyzed


def analyze_events_flat(
    events: Sequence[Event],
    db: ProfileDatabase,
    context_sensitive: bool = False,
    metric: str = "trms",
) -> int:
    """Flat-analyse an in-memory event stream (whole trace, all threads)."""
    from ..farm.binfmt import columns_from_events

    columns, names = columns_from_events(events)
    return analyze_columns_flat(
        [columns], names, db, context_sensitive=context_sensitive,
        metric=metric)
