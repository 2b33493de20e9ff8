"""Discrete-event simulation kernel.

A small, deterministic, process-based kernel in the style of SimPy: model
code is written as Python generators that ``yield`` events; the engine owns
virtual time and resumes processes when the events they wait on trigger.

Determinism rules:

* simultaneous events fire ordered by ``(time, priority, schedule order)``:
  the schedule is a heap of ``(time, priority)`` *keys*, each key owning a
  FIFO bucket of the events scheduled for it, so equal-timestamp runs
  drain in the order they were scheduled without per-event re-heapify;
* the kernel never consults wall-clock time or unseeded randomness.

Performance notes (the PR-7 raw-speed pass):

* every kernel class carries ``__slots__``;
* same-``(time, priority)`` events share one bucket: scheduling into a
  hot timestamp and draining it are O(1) per event, which is what storm
  benchmarks hammer (thousands of arrivals per simulated second);
* :meth:`Engine.call_later` / :meth:`Engine.call_at` schedule a plain
  callback as a bare ``(fn, args)`` tuple -- timers and periodic ticks
  skip Event/generator machinery entirely;
* short-lived :class:`Timeout` objects are recycled through a freelist
  when they provably had a single waiting process.  The contract: model
  code must not *retain* a Timeout reference past its firing (re-yielding
  a still-pending timeout, as interrupt handlers do, is fine);
* one drain loop serves ``run()`` and ``step()``.  Stopping early costs
  no check per entry: both push a *halt key* that sorts before every
  real key, which the URGENT-preemption check already catches.  The
  sanitizer (timer-cell wrapping) and the schedule shuffle (a per-bucket
  permute) add no per-entry branch either.

Only the features the repro library needs are implemented, but they are
implemented fully: timeouts, process joining, interrupts, and the
``AnyOf``/``AllOf`` conditions used by migration and failure injection.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from ..common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .sanitizer import Sanitizer

# Scheduling priorities (lower fires first at equal times).
URGENT = 0
NORMAL = 1

#: freelist bound: beyond this, recycled cells are dropped to the GC
_POOL_MAX = 4096


class Event:
    """A one-shot occurrence with a value and callbacks.

    Lifecycle: *pending* -> ``succeed``/``fail`` (**triggered**) ->
    callbacks run (**processed**).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._defused = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------------

    def _trigger(self, ok: bool, value: Any, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """THE one transition from pending to triggered.

        Every path that fires an event -- ``succeed``, ``fail``, timeout
        construction, interrupt delivery -- funnels through here, so the
        already-triggered guard and the schedule insertion cannot drift
        apart (that single code path is also what makes freelist reuse of
        Timeouts safe to reason about).
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value
        self.engine._schedule(self, priority, delay)

    def succeed(self, value: Any = None) -> "Event":
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail() needs an exception instance")
        self._trigger(False, exc)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it doesn't crash the run."""
        self._defused = True

    # -- composition ---------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.engine, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.engine, [self, other])


_PENDING = object()


class Timeout(Event):
    """An event that triggers *delay* simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._trigger(True, value, NORMAL, delay)


# A :meth:`Engine.call_later` timer is scheduled as a bare ``(fn, args)``
# tuple, not an Event: no value, no callbacks, no handle.  CPython's tuple
# free list makes allocation cheaper than any slab pool we could manage in
# Python, and the dispatch loop recognises timers by ``__class__ is tuple``.


class Initialize(Event):
    """Internal: kicks off a freshly created process."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process") -> None:
        super().__init__(engine)
        self.callbacks.append(process._resume)
        self._trigger(True, None, URGENT)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _Interruption(Event):
    """Internal: delivers an Interrupt into a process out-of-band."""

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.engine)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.engine.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self._defused = True
        # Detach the process from whatever it was waiting on so the original
        # event does not resume it a second time when it eventually fires.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        self.callbacks.append(process._resume)
        self._trigger(False, Interrupt(cause), URGENT)


class Process(Event):
    """Wraps a generator; is itself an event that triggers on return.

    Yield an :class:`Event` to wait for it.  The event's value becomes the
    result of the ``yield`` expression; failed events raise inside the
    generator (so model code can ``try/except`` simulated failures).
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, engine: "Engine", generator: Generator, name: str | None = None) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def started(self) -> bool:
        """True once the generator body has begun executing.

        Interrupting a process that has not started raises the Interrupt at
        its first line -- before any ``try`` can catch it -- so cooperative
        shutdown code should check this and use a flag instead.
        """
        return not isinstance(self._target, Initialize)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        _Interruption(self, cause)

    # -- engine plumbing -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        self.engine._active = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    event._defused = True
                    next_target = generator.throw(event._value)
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc)
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                self._target = None
                self.fail(exc)
                break
            if next_target.engine is not self.engine:
                exc = SimulationError("yielded an event from a different engine")
                self._target = None
                self.fail(exc)
                break

            self._target = next_target
            if next_target.callbacks is not None:
                next_target.callbacks.append(self._resume)
                break
            # Already processed: loop immediately with its value.
            event = next_target
        self.engine._active = None


class Condition(Event):
    """Base for AllOf/AnyOf: triggers when ``_check`` says enough happened."""

    __slots__ = ("events", "_done")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("condition spans multiple engines")
            if ev.callbacks is None:
                self._on_event(ev)
            else:
                ev.callbacks.append(self._on_event)

    def _on_event(self, ev: Event) -> None:
        if self.triggered:
            if not ev._ok:
                ev._defused = True
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self._done += 1
        if self._check():
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout carries its value from
        # birth, so `triggered` alone would leak events that fire later.
        return {ev: ev._value for ev in self.events if ev.callbacks is None and ev._ok}

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every constituent event has succeeded."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._done == len(self.events)


class AnyOf(Condition):
    """Triggers when the first constituent event succeeds."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._done >= 1


#: Process._resume as an unbound function, for the Timeout-recycling probe
_RESUME = Process._resume

#: the halt key: sorts before every real key (time is never negative)
#: and owns no bucket, so pushing it ends the drain
_HALT = (-1.0, URGENT)

_INF = float("inf")


class Engine:
    """The event loop: owns virtual time and the schedule.

    The schedule is two-level: a heap of ``(time, priority)`` keys over
    FIFO buckets.  Events scheduled for a key already in the heap append
    in O(1); draining a same-timestamp run pops the bucket left-to-right
    with the key heap untouched, so a burst of N simultaneous events
    costs O(N) instead of N heap reorderings.  ``events_dispatched``
    counts every dispatched entry (events and timers) -- benchmarks
    divide it by wall time for the kernel events/sec trajectory.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._buckets: dict[tuple[float, int], deque] = {}
        self._keys: list[tuple[float, int]] = []
        self._active: Process | None = None
        self._timeout_pool: list[Timeout] = []
        self.events_dispatched = 0
        # Hot-bucket cache: grid-shaped storms schedule run after run of
        # entries for one (time, priority) key; remembering the last
        # bucket skips the tuple build + dict hash on those repeats.
        # Simulated time is never negative, so -1.0 means "no cache".
        self._hot_at = -1.0
        self._hot_pri = NORMAL
        self._hot_bucket: deque | None = None
        # Concurrency tooling, both off by default and neither a branch
        # per entry in _drain (see enable_sanitizer, enable_schedule_shuffle).
        self._sanitizer: "Sanitizer | None" = None
        self._shuffle = None  # RngStream permuting equal-(time, priority) runs

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool and delay >= 0:
            t = pool.pop()
            t.delay = delay
            t._ok = True
            t._value = value
            self._schedule(t, NORMAL, delay)
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- callback fast path ----------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any,
                   urgent: bool = False) -> None:
        """Schedule ``fn(*args)`` *delay* seconds from now.

        The fast path for timers, periodic ticks and retries: no Event, no
        generator, no handle -- one bare ``(fn, args)`` tuple on the schedule.
        Fire-and-forget by design: there is nothing to cancel, so a
        callback that may be stopped should check its owner's flag and
        simply decline to reschedule (see the DataNode heartbeat loop).
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay}")
        # _schedule's body for a timer cell, inlined: this is the hottest
        # schedule entry point (periodic ticks rescheduling themselves).
        at = self._now + delay
        priority = URGENT if urgent else NORMAL
        if at == self._hot_at and priority == self._hot_pri:
            self._hot_bucket.append((fn, args))
            return
        key = (at, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = deque()
            heappush(self._keys, key)
        self._hot_at = at
        self._hot_pri = priority
        self._hot_bucket = bucket
        bucket.append((fn, args))

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any,
                urgent: bool = False) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time *when*."""
        if when < self._now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self._now})")
        self._insert(when, URGENT if urgent else NORMAL, (fn, args))

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        at = self._now + delay
        if at == self._hot_at and priority == self._hot_pri:
            self._hot_bucket.append(event)
            return
        key = (at, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = deque()
            heappush(self._keys, key)
        self._hot_at = at
        self._hot_pri = priority
        self._hot_bucket = bucket
        bucket.append(event)

    def _insert(self, at: float, priority: int, entry: Any) -> None:
        """Schedule insert without the hot-bucket cache (a shortcut to the
        same deque, so FIFO order is shared with :meth:`_schedule`)."""
        key = (at, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = deque()
            heappush(self._keys, key)
        bucket.append(entry)

    def _next_key(self) -> "tuple[float, int] | None":
        """Head of the key heap, lazily discarding drained keys."""
        keys = self._keys
        buckets = self._buckets
        while keys:
            key = keys[0]
            if key in buckets:
                return key
            heappop(keys)
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        key = self._next_key()
        return key[0] if key is not None else _INF

    # -- concurrency tooling ---------------------------------------------------

    def enable_sanitizer(self) -> "Sanitizer":
        """Arm the happens-before race sanitizer (idempotent).

        While armed, every schedule entry, pending or new, is held as a
        ``(san.dispatch, (entry,))`` timer cell: the drain loop fires it
        through the sanitizer with no branch of its own and never
        recycles a Timeout the sanitizer could observe.  New entries come
        from note-taking wrappers that shadow the scheduling methods as
        instance attributes until :meth:`disable_sanitizer`.
        """
        if self._sanitizer is not None:
            return self._sanitizer
        from .sanitizer import Sanitizer, activate

        san = Sanitizer(self)
        self._sanitizer = san
        dispatch = san.dispatch
        insert = self._insert

        def _schedule(event: Event, priority: int, delay: float = 0.0) -> None:
            san.note_schedule(event)
            insert(self._now + delay, priority, (dispatch, (event,)))

        def call_at(when: float, fn: Callable[..., Any], *args: Any,
                    urgent: bool = False) -> None:
            if when < self._now:
                raise SimulationError(
                    f"call_at({when}) is in the past (now={self._now})")
            cell = (fn, args)
            san.note_schedule(cell)
            insert(when, URGENT if urgent else NORMAL, (dispatch, (cell,)))

        def call_later(delay: float, fn: Callable[..., Any], *args: Any,
                       urgent: bool = False) -> None:
            if delay < 0:
                raise SimulationError(f"negative call_later delay: {delay}")
            call_at(self._now + delay, fn, *args, urgent=urgent)

        self._schedule = _schedule          # type: ignore[method-assign]
        self.call_later = call_later        # type: ignore[method-assign]
        self.call_at = call_at              # type: ignore[method-assign]
        self._map_pending(lambda entry: (dispatch, (entry,)))
        activate(san)
        return san

    def disable_sanitizer(self) -> None:
        """Disarm the sanitizer: unwrap pending entries, unshadow methods."""
        san = self._sanitizer
        if san is None:
            return
        from .sanitizer import deactivate

        deactivate(san)
        self._sanitizer = None
        for name in ("_schedule", "call_later", "call_at"):
            self.__dict__.pop(name, None)
        dispatch = san.dispatch
        self._map_pending(lambda entry: entry[1][0] if entry.__class__ is tuple
                          and entry[0] == dispatch else entry)

    def _map_pending(self, fn: Callable[[Any], Any]) -> None:
        """Replace every pending entry by ``fn(entry)``, order kept."""
        for bucket in self._buckets.values():
            entries = [fn(entry) for entry in bucket]
            bucket.clear()
            bucket.extend(entries)

    def enable_schedule_shuffle(self, seed: int) -> None:
        """Permute equal-``(time, priority)`` dispatch order, seeded.

        The shuffle is the schedule fuzzer's lever: every legal
        tie-break order is a legal schedule, so any report that changes
        under a reshuffle depends on dispatch order -- a race.  Ordering
        *between* distinct keys (times, priorities) is untouched.
        """
        from ..common.rng import RngStream

        self._shuffle = RngStream(int(seed), "schedule-shuffle")

    def disable_schedule_shuffle(self) -> None:
        """Restore plain FIFO draining of equal-key buckets."""
        self._shuffle = None

    # -- the drain loop -------------------------------------------------------

    def _halt(self, _event: Event) -> None:
        heappush(self._keys, _HALT)

    def _drain(self, deadline: float, one: bool) -> None:
        """THE dispatch loop: fire entries in ``(time, priority, FIFO)`` order.

        Stops when the schedule empties, the head key lies past
        *deadline*, or the halt key is at the head: pushed by a stop
        event's :meth:`_halt` callback, or at once when *one*, it ends
        the drain after the current entry through the same per-entry
        check that lets an URGENT arrival preempt the rest of a bucket.
        A shuffled bucket is re-permuted on each visit of its key.
        """
        keys = self._keys
        buckets = self._buckets
        timeout_pool = self._timeout_pool
        shuffle = self._shuffle
        dispatched = self.events_dispatched
        try:
            while keys:
                key = keys[0]
                bucket = buckets.get(key)
                if bucket is None:
                    if key is _HALT:
                        break
                    heappop(keys)       # a drained bucket's stale key
                    continue
                if key[0] > deadline:
                    break
                self._now = key[0]
                if one:
                    heappush(keys, _HALT)
                if shuffle is not None and len(bucket) > 1:
                    permuted = shuffle.shuffle(list(bucket))
                    bucket.clear()
                    bucket.extend(permuted)
                popleft = bucket.popleft
                try:
                    while bucket:
                        entry = popleft()
                        dispatched += 1
                        if entry.__class__ is tuple:
                            fn, args = entry
                            fn(*args)
                        else:
                            callbacks, entry.callbacks = entry.callbacks, None
                            for cb in callbacks:
                                cb(entry)
                            if not entry._ok and not entry._defused:
                                raise entry._value
                            if entry.__class__ is Timeout \
                                    and len(callbacks) == 1 \
                                    and getattr(callbacks[0], "__func__",
                                                None) is _RESUME:
                                # sole waiter was a process: recycle the
                                # cell (the module docstring's contract)
                                entry._value = _PENDING
                                entry._ok = None
                                entry._defused = False
                                callbacks.clear()
                                entry.callbacks = callbacks
                                if len(timeout_pool) < _POOL_MAX:
                                    timeout_pool.append(entry)
                        if keys[0] is not key:
                            break       # a halt or URGENT key arrived
                finally:
                    # also on a raising entry, so no empty bucket is left
                    if not bucket:
                        del buckets[key]
                        if self._hot_bucket is bucket:
                            self._hot_at = -1.0
                            self._hot_bucket = None
                        if keys[0] is key:
                            heappop(keys)
        finally:
            self.events_dispatched = dispatched
            if keys and keys[0] is _HALT:
                heappop(keys)

    def step(self) -> None:
        """Process exactly one schedule entry."""
        if self._next_key() is None:
            raise SimulationError("step() on an empty schedule")
        self._drain(_INF, True)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the schedule empties, a deadline passes, or an event fires.

        * ``until=None``   -- drain the schedule.
        * ``until=<float>``-- advance to that time (clock lands exactly there).
        * ``until=<Event>``-- run until that event triggers; returns its value.
        """
        stop: Event | None = None
        deadline = _INF
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                return stop._value
            stop.callbacks.append(self._halt)
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
        try:
            self._drain(deadline, False)
        finally:
            if stop is not None and stop.callbacks is not None:
                stop.callbacks.remove(self._halt)

        if self._sanitizer is not None:
            # run() returning is a synchronization point: the caller
            # resumes only after every dispatched event has finished,
            # so its later accesses are ordered after the whole run
            self._sanitizer.barrier()
        if stop is None:
            if until is not None:
                self._now = max(self._now, deadline)
            return None
        if not stop.triggered:
            raise SimulationError("run() ran out of events before `until` triggered")
        if not stop._ok:
            stop._defused = True
            raise stop._value
        return stop._value
