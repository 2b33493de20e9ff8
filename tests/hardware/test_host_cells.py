"""The disk and CPU timer-cell servers, against the process-per-operation oracle.

`Disk` (one slot) and the `PhysicalHost` CPU (``cores`` slots) serve each
operation as four schedule entries and no process; `ProcessHost` (the
oracle) starts a kernel process per operation that claims a `Resource`
slot and sleeps a `Timeout`.  Under random schedules both must complete
every operation at the same instant, in the same order, with the same
outcome, and dispatch the same number of entries.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.calibration import Calibration
from repro.common.errors import CapacityError
from repro.common.units import GHz, MiB
from repro.hardware import PhysicalHost
from repro.sim import Engine, Interrupt

from tests.hardware.process_host_oracle import ProcessHost

CAL = Calibration()
HZ = 1 * GHz
SEEK = CAL.disk_seek_time
READ_S = CAL.disk_read_rate    # bytes that stream in one second
WRITE_S = CAL.disk_write_rate


def make_host(cls, cores=1):
    engine = Engine()
    return engine, cls(engine, "n0", CAL, cores=cores, cpu_hz=HZ)


def start(host, kind, size, overhead=1.0):
    """The operation generator of *kind* on *host*."""
    if kind == "read":
        return host.disk.read(size)
    if kind == "write":
        return host.disk.write(size)
    if kind == "compute":
        return host.compute(size, overhead)
    return host.compute_seconds(size / HZ, overhead)


def run_plan(cls, cores, chains, changes, interrupts):
    """Drive a plan through a fresh host of class *cls*.

    *chains* are ``(at, ops)``: one process per chain sleeps until *at*,
    then runs its ops back to back.  *changes* set the disk slowdown or
    the CPU throttle from timer cells of their own; *interrupts* throw
    into a started, live chain.  Returns the firing log -- (chain, op,
    time, outcome, running tasks) in the order operations ended -- the
    counters, the final clock and the entries dispatched.
    """
    engine, host = make_host(cls, cores)
    log = []

    def chain(index, at, ops):
        try:
            yield engine.timeout(at)
        except Interrupt:
            log.append((index, -1, engine.now, "interrupted", host.running_tasks))
        for op, (kind, size, overhead) in enumerate(ops):
            try:
                yield from start(host, kind, size, overhead)
                outcome = "ok"
            except CapacityError as exc:
                outcome = f"CapacityError: {exc}"
            except Interrupt:
                outcome = "interrupted"
            log.append((index, op, engine.now, outcome, host.running_tasks))

    procs = [engine.process(chain(i, at, ops)) for i, (at, ops) in enumerate(chains)]
    for what, at, factor, urgent in changes:
        fn = host.disk.set_slowdown if what == "slowdown" else host.set_cpu_throttle
        engine.call_later(at, fn, factor, urgent=urgent)

    def interrupt(index):
        proc = procs[index % len(procs)]
        if proc.is_alive and proc.started:
            proc.interrupt("plan")

    for at, index in interrupts:
        engine.call_later(at, interrupt, index)
    while True:
        try:
            engine.run()
            break
        except CapacityError as exc:
            # a failed operation whose caller was interrupted away
            log.append(("unhandled", engine.now, str(exc)))
    counters = (host.disk.bytes_read, host.disk.bytes_written,
                host.busy_core_seconds, host.running_tasks)
    return log, counters, engine.now, engine.events_dispatched


@st.composite
def plans(draw):
    # round instants and whole service times make starts, changes and
    # completions collide, so same-instant ordering is exercised
    at = st.one_of(
        st.sampled_from((0.0, SEEK, 0.25, 0.5, 1.0, 1.0 + SEEK, 2 * (1.0 + SEEK))),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
    disk_size = st.one_of(
        st.sampled_from((-5, 0, MiB)),
        st.integers(min_value=1, max_value=4).map(lambda k: int(k * READ_S / 4)),
        st.integers(min_value=0, max_value=2 * int(READ_S)))
    cycles = st.one_of(
        st.sampled_from((-1.0, 0.0, HZ / 2, HZ)),
        st.floats(min_value=0.0, max_value=3 * HZ, allow_nan=False))
    overhead = st.sampled_from((1.0, 1.5))
    op = st.one_of(
        st.tuples(st.sampled_from(("read", "write")), disk_size, st.just(1.0)),
        st.tuples(st.sampled_from(("compute", "compute_seconds")), cycles, overhead))
    chains = draw(st.lists(st.tuples(at, st.lists(op, min_size=1, max_size=4)),
                           min_size=1, max_size=10))
    factor = st.one_of(st.sampled_from((1.0, 2.0, 4.0)),
                       st.floats(min_value=1.0, max_value=8.0))
    changes = draw(st.lists(st.tuples(st.sampled_from(("slowdown", "throttle")),
                                      at, factor, st.booleans()), max_size=6))
    interrupts = draw(st.lists(st.tuples(at, st.integers(min_value=0, max_value=9)),
                               max_size=3))
    cores = draw(st.integers(min_value=1, max_value=3))
    return cores, chains, changes, interrupts


class TestCellsMatchProcessOracle:
    @given(plans())
    @settings(max_examples=200, deadline=None)
    def test_same_firings_counters_clock_and_entries(self, plan):
        got = run_plan(PhysicalHost, *plan)
        expected = run_plan(ProcessHost, *plan)
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2] == expected[2]
        assert got[3] == expected[3]


def completions(engine, host, ops, at=0.0):
    """Issue every op at *at* from a process each; return end times in order."""
    done = []

    def one(i, kind, size):
        yield engine.timeout(at)
        yield from start(host, kind, size)
        done.append((i, engine.now))

    for i, (kind, size) in enumerate(ops):
        engine.process(one(i, kind, size))
    engine.run()
    return done


class TestFifo:
    def test_spindle_serves_in_issue_order(self):
        engine, host = make_host(PhysicalHost)
        sizes = [int(WRITE_S), int(WRITE_S / 4), int(WRITE_S / 2)]
        done = completions(engine, host, [("write", n) for n in sizes])
        assert [i for i, _ in done] == [0, 1, 2]
        ends = [t for _, t in done]
        assert ends[0] == pytest.approx(SEEK + 1.0)
        assert ends[1] - ends[0] == pytest.approx(SEEK + 0.25)
        assert ends[2] - ends[1] == pytest.approx(SEEK + 0.5)
        assert host.disk.bytes_written == sum(sizes)

    def test_cores_serve_in_issue_order(self):
        engine, host = make_host(PhysicalHost, cores=2)
        # 3 s and 1 s start at once; the 2 s job takes the core freed at
        # 1 s, the last 1 s job the first core freed at 3 s
        done = completions(engine, host, [("compute", 3 * HZ), ("compute", HZ),
                                          ("compute", 2 * HZ), ("compute", HZ)])
        assert done == [(1, 1.0), (0, 3.0), (2, 3.0), (3, 4.0)]
        assert host.busy_core_seconds == 7.0

    def test_running_tasks_under_contention(self):
        engine, host = make_host(PhysicalHost, cores=2)
        seen = []
        for i in range(3):
            engine.process(host.compute(HZ))
        for t in (0.5, 1.5, 2.5):
            engine.call_later(t, lambda: seen.append(host.running_tasks))
        engine.run()
        assert seen == [2, 1, 0]
        assert host.busy_core_seconds == 3.0


class TestRatesAreReadWhereTheyWere:
    def test_slowdown_set_while_queued_applies(self):
        engine, host = make_host(PhysicalHost)
        n = int(READ_S)
        engine.call_later(0.5, host.disk.set_slowdown, 4.0)
        done = completions(engine, host, [("read", n), ("read", n)])
        # the first read was granted before the change, the second after
        assert done[0][1] == pytest.approx(SEEK + 1.0)
        assert done[1][1] == pytest.approx(5 * (SEEK + 1.0))

    def test_slowdown_set_in_the_issuing_step_applies(self):
        engine, host = make_host(PhysicalHost)
        n = 10 * MiB
        ends = []

        def reader():
            yield from host.disk.read(n)
            ends.append(engine.now)

        engine.process(reader())
        change = engine.event()
        change.callbacks.append(lambda _: host.disk.set_slowdown(4.0))
        change.succeed()
        engine.run()
        assert ends == [pytest.approx(4 * (SEEK + n / READ_S))]

    def test_throttle_is_read_at_arrival(self):
        engine, host = make_host(PhysicalHost)
        ends = []
        ops = []

        def issue():
            ops.append(host.compute(HZ))
            done = next(ops[-1])        # posts the arrival cell
            done.callbacks.append(lambda _: ends.append(engine.now))

        issue()                         # arrives at throttle 1
        engine.call_later(0.0, host.set_cpu_throttle, 2.0, urgent=True)
        issue()                         # arrives after the change: 2 s
        # set while the second job is queued: its seconds are already fixed
        engine.call_later(0.5, host.set_cpu_throttle, 3.0)
        engine.run()
        assert ends == [1.0, 3.0]
        assert host.busy_core_seconds == 3.0

    def test_negative_cycles_fail_with_capacity_error(self):
        engine, host = make_host(PhysicalHost)
        caught = []

        def job():
            try:
                yield from host.compute(-1.0)
            except CapacityError as exc:
                caught.append((engine.now, str(exc)))

        engine.process(job())
        engine.run()
        assert caught == [(0.0, "negative cycles: -1.0")]
        assert host.running_tasks == 0 and host.busy_core_seconds == 0.0

    def test_negative_size_fails_a_process_around_the_read(self):
        engine, host = make_host(PhysicalHost)
        p = engine.process(host.disk.read(-5))
        with pytest.raises(CapacityError, match="negative I/O size: -5"):
            engine.run(p)


class TestScheduleEntries:
    @pytest.mark.parametrize("cls, processes", [(PhysicalHost, 0), (ProcessHost, 1)])
    @pytest.mark.parametrize("kind", ["read", "write", "compute"])
    def test_lone_operation(self, monkeypatch, cls, processes, kind):
        started = []
        original = Engine.process

        def spy(engine, *args, **kwargs):
            started.append(args)
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(Engine, "process", spy)
        engine, host = make_host(cls)
        op = start(host, kind, MiB if kind != "compute" else HZ)
        next(op)        # the body up to its one wait, as `yield from` runs it
        engine.run()
        # arrival, grant, finish, completion event; the oracle's initialise,
        # grant, timeout and exit are the same four
        assert engine.events_dispatched == 4
        assert len(started) == processes

    def test_servers_start_no_process_or_timeout(self, monkeypatch):
        callers = []

        def spy(original):
            def wrapper(engine, *args, **kwargs):
                callers.append(sys._getframe(1).f_globals["__name__"])
                return original(engine, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(Engine, "process", spy(Engine.process))
        monkeypatch.setattr(Engine, "timeout", spy(Engine.timeout))
        ops = [("read", MiB, 1.0), ("compute", HZ, 1.0), ("write", MiB, 1.0)]
        chains = [(0.1 * i, ops) for i in range(6)]
        log, _, _, _ = run_plan(PhysicalHost, 2, chains, [], [])
        assert len(log) == 18
        assert "repro.hardware.host" not in callers
        callers.clear()
        run_plan(ProcessHost, 2, chains, [], [])
        assert "tests.hardware.process_host_oracle" in callers
