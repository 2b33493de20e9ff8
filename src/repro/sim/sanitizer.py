"""Happens-before race sanitizer for the event kernel.

The kernel's determinism contract says same-``(time, priority)`` events
drain FIFO -- but nothing in a *model* should depend on that order.  Two
accesses to the same shared object are a **schedule race** when

* at least one of them is a write,
* they happen at the **same simulated timestamp** (only equal-time
  dispatch order is a tie-break; accesses at different times can never
  be reordered by a legal schedule), and
* they are **unordered by the event graph's happens-before relation**:
  neither task's dispatch causally precedes the other's through process
  program order, event scheduling/trigger edges, or timer scheduling.

The sanitizer maintains vector clocks per *task* (a process generator, a
timer-callback dispatch, or the root context outside any dispatch) and a
FastTrack-style per-field access history.  It is armed per engine with
:meth:`~repro.sim.core.Engine.enable_sanitizer`, which holds every
schedule entry as a ``(sanitizer.dispatch, (entry,))`` timer cell, so
the engine's drain loop has no sanitizer branch -- the only standing
cost in shared-state layers is an ``ACTIVE is None`` check at each
tagged call site.

Call sites tag accesses with::

    from repro.sim import sanitizer as _sanitizer
    if _sanitizer.ACTIVE is not None:
        _sanitizer.ACTIVE.access(self, "level", "w")

``ACTIVE`` is module-level so shared state without an engine reference
(circuit breakers, admission queues) can reach the armed sanitizer; one
sanitizer is active at a time, which matches how the schedule fuzzer
re-runs a single world per shuffle.

The sanitizer over-approximates on purpose: a flagged pair proves the
access order is schedule-dependent, not that the end report changes.
The schedule fuzzer (:mod:`repro.sim.fuzz`) provides the complementary
under-approximation -- it only flags *observable* divergence -- so a
finding confirmed by both is a genuine, consequential race.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .core import Process

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .core import Engine

#: the armed sanitizer, or None; see the module docstring for the
#: call-site tagging idiom
ACTIVE: "Sanitizer | None" = None

#: stop collecting (but keep counting) past this many race records
_MAX_RACES = 1000


def activate(sanitizer: "Sanitizer") -> None:
    """Make *sanitizer* the one tagged call sites report to."""
    global ACTIVE
    ACTIVE = sanitizer


def deactivate(sanitizer: "Sanitizer") -> None:
    """Retire *sanitizer* if it is the active one (idempotent)."""
    global ACTIVE
    if ACTIVE is sanitizer:
        ACTIVE = None


@dataclass(frozen=True)
class RaceRecord:
    """One pair of same-timestamp, happens-before-unordered accesses."""

    obj: str                   # registered (or derived) shared-object name
    field: str
    time: float                # simulated time both accesses occurred at
    kind: str                  # write-write | read-write
    first: str                 # e.g. "write by process:heartbeat"
    second: str

    def format(self) -> str:
        return (f"t={self.time:g} {self.obj}.{self.field}: {self.kind} race "
                f"-- {self.first} unordered with {self.second}")


class _Task:
    """One unit of attribution: a process, a timer dispatch, or root."""

    __slots__ = ("tid", "label", "clock")

    def __init__(self, tid: int, label: str) -> None:
        self.tid = tid
        self.label = label
        self.clock: dict[int, int] = {tid: 1}


class _FieldState:
    """FastTrack-style per-(object, field) access history."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        # write: (tid, clockval, time, label) of the last write
        self.write: "tuple[int, int, float, str] | None" = None
        # reads since the last write: tid -> (clockval, time, label)
        self.reads: dict[int, tuple[int, float, str]] = {}


class Sanitizer:
    """Vector-clock happens-before checker over registered shared objects."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.races: list[RaceRecord] = []
        self.dropped = 0          # races past the collection cap
        self.accesses = 0         # tagged accesses observed (for overhead math)
        self._names: dict[int, str] = {}
        self._objects: dict[int, Any] = {}   # strong refs keep ids stable
        self._tasks: dict[int, _Task] = {}   # id(process) -> task
        self._pending: dict[int, dict[int, int]] = {}  # id(entry) -> clock
        self._state: dict[tuple[int, str], _FieldState] = {}
        self._seen: set[tuple[str, str, str, str, str]] = set()
        self._next_tid = 0
        self.current = self._new_task("root")

    # -- registry --------------------------------------------------------------

    def track(self, obj: Any, name: str) -> None:
        """Register *obj* under a stable *name* for race reports."""
        self._names[id(obj)] = name
        self._objects[id(obj)] = obj

    def name_of(self, obj: Any) -> str:
        """The registered name of *obj*, auto-registering a derived one."""
        name = self._names.get(id(obj))
        if name is None:
            name = f"{type(obj).__name__}#{len(self._names)}"
            self.track(obj, name)
        return name

    # -- engine hooks ----------------------------------------------------------

    def note_schedule(self, entry: Any) -> None:
        """Record the scheduling task's clock as *entry*'s causal context."""
        cur = self.current
        cur.clock[cur.tid] += 1
        self._pending[id(entry)] = dict(cur.clock)

    def dispatch(self, entry: Any) -> None:
        """Fire one schedule entry with happens-before attribution.

        Called as the timer cell the engine wraps around *entry*, so it
        raises an unhandled failure as the drain loop would (and a wrapped
        Timeout is never recycled).  Timer cells run as fresh tasks
        joined from their scheduler's clock; event callbacks owned by a
        :class:`Process` resume that process's long-lived task; other
        callbacks (conditions) run as ephemeral tasks carrying the
        trigger context forward.
        """
        ctx = self._pending.pop(id(entry), None)
        if entry.__class__ is tuple:
            fn, args = entry
            task = self._new_task(
                f"timer:{getattr(fn, '__qualname__', 'callback')}")
            if ctx is not None:
                _join(task.clock, ctx)
            prev, self.current = self.current, task
            try:
                fn(*args)
            finally:
                self.current = prev
            return
        callbacks, entry.callbacks = entry.callbacks, None
        for cb in callbacks:
            owner = getattr(cb, "__self__", None)
            if isinstance(owner, Process):
                task = self._tasks.get(id(owner))
                if task is None:
                    task = self._new_task(f"process:{owner.name}")
                    self._tasks[id(owner)] = task
                    self._objects[id(owner)] = owner
                if ctx is not None:
                    _join(task.clock, ctx)
                task.clock[task.tid] += 1
            else:
                task = self._new_task(
                    f"callback:{getattr(cb, '__qualname__', 'fn')}")
                if ctx is not None:
                    _join(task.clock, ctx)
            prev, self.current = self.current, task
            try:
                cb(entry)
            finally:
                self.current = prev
        if not entry._ok and not entry._defused:
            raise entry._value

    # -- access tagging --------------------------------------------------------

    def access(self, obj: Any, field: str, op: str) -> None:
        """Tag one read (``op="r"``) or write (``op="w"``) of a shared field."""
        self.accesses += 1
        task = self.current
        now = self.engine._now
        key = (id(obj), field)
        st = self._state.get(key)
        if st is None:
            self._state[key] = st = _FieldState()
            self.name_of(obj)
        if op == "w":
            w = st.write
            if w is not None and w[2] == now \
                    and not self._ordered(w[0], w[1], task):
                self._record(obj, field, now, "write-write", w[3],
                             f"write by {task.label}")
            for rtid, (rclock, rtime, rlabel) in st.reads.items():
                if rtime == now and not self._ordered(rtid, rclock, task):
                    self._record(obj, field, now, "read-write", rlabel,
                                 f"write by {task.label}")
            st.write = (task.tid, task.clock[task.tid], now,
                        f"write by {task.label}")
            st.reads.clear()
        else:
            w = st.write
            if w is not None and w[2] == now \
                    and not self._ordered(w[0], w[1], task):
                self._record(obj, field, now, "read-write", w[3],
                             f"read by {task.label}")
            st.reads[task.tid] = (task.clock[task.tid], now,
                                  f"read by {task.label}")

    def barrier(self) -> None:
        """Order everything observed so far before the current task.

        ``Engine.run()`` returning is a synchronization point: the
        caller resumes only after every dispatched event has finished,
        so accesses it makes afterwards (inspecting reports, picking a
        crash victim between runs) happen-after the whole run.  Joins
        every live task clock and every recorded access epoch into the
        current (calling) task's clock.
        """
        clock = self.current.clock
        for task in self._tasks.values():
            _join(clock, task.clock)
        for st in self._state.values():
            w = st.write
            if w is not None and clock.get(w[0], 0) < w[1]:
                clock[w[0]] = w[1]
            for rtid, (rclock, _rtime, _rlabel) in st.reads.items():
                if clock.get(rtid, 0) < rclock:
                    clock[rtid] = rclock

    # -- results ---------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.races and not self.dropped

    def report(self) -> str:
        """Human-readable summary of every collected race."""
        if self.ok:
            return (f"sanitizer: no races "
                    f"({self.accesses} tagged accesses checked)")
        lines = [f"sanitizer: {len(self.races) + self.dropped} race(s) over "
                 f"{self.accesses} tagged accesses"]
        lines += [r.format() for r in self.races]
        if self.dropped:
            lines.append(f"... and {self.dropped} more (collection capped)")
        return "\n".join(lines)

    # -- internals -------------------------------------------------------------

    def _new_task(self, label: str) -> _Task:
        task = _Task(self._next_tid, label)
        self._next_tid += 1
        return task

    @staticmethod
    def _ordered(tid: int, clockval: int, task: _Task) -> bool:
        """Did the access epoch ``(tid, clockval)`` happen-before *task* now?"""
        return tid == task.tid or task.clock.get(tid, 0) >= clockval

    def _record(self, obj: Any, field: str, now: float, kind: str,
                first: str, second: str) -> None:
        name = self.name_of(obj)
        dedup = (name, field, kind, first, second)
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        if len(self.races) >= _MAX_RACES:
            self.dropped += 1
            return
        self.races.append(RaceRecord(name, field, now, kind, first, second))


def _join(clock: dict[int, int], other: dict[int, int]) -> None:
    """Pointwise max of *other* into *clock* (the vector-clock join)."""
    for tid, val in other.items():
        if clock.get(tid, 0) < val:
            clock[tid] = val
