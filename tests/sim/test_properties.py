"""Property-based tests of the event kernel's core invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import Container, Engine, Interrupt, Resource, Store


@st.composite
def process_specs(draw):
    """A random set of processes: (start_delay, work_items)."""
    n = draw(st.integers(min_value=1, max_value=8))
    specs = []
    for _ in range(n):
        start = draw(st.floats(min_value=0, max_value=10, allow_nan=False))
        work = draw(st.lists(
            st.floats(min_value=0, max_value=5, allow_nan=False),
            min_size=1, max_size=5))
        specs.append((start, work))
    return specs


class TestKernelProperties:
    @given(process_specs())
    @settings(max_examples=60, deadline=None)
    def test_time_never_goes_backwards(self, specs):
        engine = Engine()
        observed = []

        def proc(start, work):
            yield engine.timeout(start)
            for w in work:
                observed.append(engine.now)
                yield engine.timeout(w)
            observed.append(engine.now)

        for start, work in specs:
            engine.process(proc(start, work))
        engine.run()
        assert observed == sorted(observed)
        assert engine.now == max(observed)

    @given(process_specs())
    @settings(max_examples=60, deadline=None)
    def test_identical_runs_identical_traces(self, specs):
        def run_once():
            engine = Engine()
            trace = []

            def proc(i, start, work):
                yield engine.timeout(start)
                for w in work:
                    trace.append((round(engine.now, 9), i))
                    yield engine.timeout(w)

            for i, (start, work) in enumerate(specs):
                engine.process(proc(i, start, work))
            engine.run()
            return trace

        assert run_once() == run_once()

    @given(st.integers(min_value=1, max_value=5),
           st.lists(st.floats(min_value=0.1, max_value=3), min_size=1,
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_resource_work_conservation(self, capacity, durations):
        """Total busy time is conserved; makespan bounded by capacity."""
        engine = Engine()
        resource = Resource(engine, capacity=capacity)
        finished = []

        def worker(d):
            with resource.request() as req:
                yield req
                yield engine.timeout(d)
            finished.append(d)

        for d in durations:
            engine.process(worker(d))
        engine.run()
        assert sorted(finished) == sorted(durations)
        total = sum(durations)
        # perfect packing lower bound and serial upper bound
        assert engine.now >= max(max(durations), total / capacity) - 1e-9
        assert engine.now <= total + 1e-9

    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                    max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_container_conserves_quantity(self, amounts):
        engine = Engine()
        tank = Container(engine, capacity=10**9, init=0)

        def producer():
            for a in amounts:
                yield tank.put(a)

        def consumer():
            for a in amounts:
                yield tank.get(a)

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert tank.level == 0

    @given(st.lists(st.integers(), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_store_is_fifo(self, items):
        engine = Engine()
        store = Store(engine)
        got = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                v = yield store.get()
                got.append(v)

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert got == items


# -- one drain loop, every way of driving it ----------------------------------

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.5])


@st.composite
def schedules(draw):
    """A random schedule: ``(kind, at, ...)`` ops built by :func:`_world`.

    Times come from a small grid so equal-``(time, priority)`` runs are
    common; every op kind lands in a shared bucket with the others.
    """
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(
            ["timer", "chain", "proc", "interrupt", "burst"]))
        at = draw(_TIMES)
        if kind == "timer":
            ops.append((kind, at, draw(st.booleans())))
        elif kind == "chain":
            ops.append((kind, at, draw(st.lists(
                st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=4))))
        elif kind == "proc":
            ops.append((kind, at, draw(st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1,
                max_size=4)), draw(st.booleans())))
        elif kind == "interrupt":
            ops.append((kind, at, draw(st.integers(min_value=0,
                                                   max_value=11))))
        else:
            ops.append((kind, at, draw(st.integers(min_value=2, max_value=6)),
                        draw(st.booleans())))
    return ops


def _world(engine: Engine, ops) -> tuple[list, list]:
    """Schedule *ops* on *engine*; return (firing log, stop events).

    The stop events -- a timeout marker per op and every process -- are
    part of the world whichever way it is driven, so each drive sees
    the same schedule.
    """
    log: list = []
    procs: list = []
    stops: list = []
    interrupted: set = set()   # the kernel delivers one interrupt at a time

    def fire(tag):
        log.append((engine.now, tag))

    def chain(tag, delays):
        fire(tag)
        if delays:
            engine.call_later(delays[0], chain, tag, delays[1:])

    def proc(tag, waits, join):
        if join and procs[0] is not engine.active_process:
            waits = [*waits, None]          # None: join the first process
        for w in waits:
            try:
                yield engine.timeout(w) if w is not None else procs[0]
                fire(tag)
            except Interrupt as exc:
                interrupted.discard(tag)
                fire((tag, "interrupted", exc.cause))
        return tag

    def interrupt(tag, index):
        if procs:
            target = procs[index % len(procs)]
            if target.is_alive and target.started \
                    and target.name not in interrupted:
                interrupted.add(target.name)
                target.interrupt(tag)
                fire(tag)

    def start(tag, waits, join):
        procs.append(engine.process(proc(str(tag), waits, join), name=str(tag)))
        stops.append(procs[-1])

    for i, op in enumerate(ops):
        kind, at = op[0], op[1]
        if kind == "timer":
            engine.call_at(at, fire, i, urgent=op[2])
        elif kind == "chain":
            engine.call_at(at, chain, i, op[2])
        elif kind == "proc":
            engine.call_at(at, start, i, op[2], op[3])
        elif kind == "interrupt":
            engine.call_at(at, interrupt, i, op[2], urgent=True)
        else:
            for j in range(op[2]):
                engine.call_at(at, fire, (i, j), urgent=op[3] and j % 2 == 0)
        stops.append(engine.timeout(at, value=i))
    return log, stops


def _drive_step(engine, stops):
    while engine.peek() != float("inf"):
        engine.step()


def _drive_deadline_ladder(engine, stops):
    for t in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 6.0):
        engine.run(until=t)
    engine.run()


def _drive_stop_events(engine, stops):
    for stop in stops:      # also visits processes appended mid-run
        engine.run(until=stop)
    engine.run()


def _drive_sanitized(engine, stops):
    engine.run()
    engine.disable_sanitizer()


def _sanitizer_cells(engine, dispatch) -> list[bool]:
    """Per pending entry: is it wrapped for the sanitizer?"""
    return [entry.__class__ is tuple and entry[0] == dispatch
            for bucket in engine._buckets.values() for entry in bucket]


def _drive_sanitizer_toggled(engine, stops):
    dispatch = engine.enable_sanitizer().dispatch
    assert all(_sanitizer_cells(engine, dispatch))
    engine.run(until=1.0)
    engine.disable_sanitizer()          # entries still pending at t > 1
    assert not any(_sanitizer_cells(engine, dispatch))
    engine.run()


_DRIVES = {
    "step": _drive_step,
    "deadline_ladder": _drive_deadline_ladder,
    "stop_events": _drive_stop_events,
    "sanitizer_before_scheduling": _drive_sanitized,
    "sanitizer_after_scheduling": _drive_sanitizer_toggled,
}


@given(schedules())
@settings(max_examples=80, deadline=None)
def test_every_drive_of_the_drain_loop_fires_the_same_log(ops):
    """run(), step(), run(until=...) and the sanitizer share one loop,
    so every way of driving a schedule fires it identically."""
    reference = Engine()
    expected, _ = _world(reference, ops)
    reference.run()

    for name, drive in _DRIVES.items():
        engine = Engine()
        if name == "sanitizer_before_scheduling":
            engine.enable_sanitizer()
        log, stops = _world(engine, ops)
        drive(engine, stops)
        assert log == expected, name
        assert engine.events_dispatched == reference.events_dispatched, name
        assert engine.peek() == float("inf"), name
