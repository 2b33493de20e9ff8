import pytest

from repro.common.errors import SimulationError
from repro.sim import Engine, Interrupt
from repro.sim.core import _HALT


@pytest.fixture
def eng():
    return Engine()


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self, eng):
        assert eng.now == 0.0

    def test_timeout_advances_clock(self, eng):
        def proc():
            yield eng.timeout(3.5)
            return eng.now

        p = eng.process(proc())
        assert eng.run(p) == 3.5
        assert eng.now == 3.5

    def test_negative_timeout_rejected(self, eng):
        with pytest.raises(SimulationError):
            eng.timeout(-1)

    def test_run_until_time_lands_exactly(self, eng):
        def ticker():
            while True:
                yield eng.timeout(1.0)

        eng.process(ticker())
        eng.run(until=10.5)
        assert eng.now == 10.5

    def test_run_until_past_raises(self, eng):
        def proc():
            yield eng.timeout(5)

        eng.process(proc())
        eng.run(until=5)
        with pytest.raises(SimulationError):
            eng.run(until=1)

    def test_timeout_value_passthrough(self, eng):
        def proc():
            v = yield eng.timeout(1, value="hello")
            return v

        assert eng.run(eng.process(proc())) == "hello"


class TestDeterminism:
    def test_simultaneous_events_fire_in_schedule_order(self, eng):
        order = []

        def proc(tag):
            yield eng.timeout(1.0)
            order.append(tag)

        for tag in ["a", "b", "c"]:
            eng.process(proc(tag))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_two_identical_runs_identical_trace(self):
        def run_once():
            eng = Engine()
            trace = []

            def worker(i):
                yield eng.timeout(i % 3)
                trace.append((eng.now, i))
                yield eng.timeout(2)
                trace.append((eng.now, -i))

            for i in range(10):
                eng.process(worker(i))
            eng.run()
            return trace

        assert run_once() == run_once()


class TestProcesses:
    def test_process_return_value(self, eng):
        def child():
            yield eng.timeout(2)
            return 42

        def parent():
            result = yield eng.process(child())
            return result + 1

        assert eng.run(eng.process(parent())) == 43

    def test_exception_propagates_to_joiner(self, eng):
        def child():
            yield eng.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield eng.process(child())
            except ValueError as e:
                return f"caught {e}"

        assert eng.run(eng.process(parent())) == "caught boom"

    def test_unhandled_failure_crashes_run(self, eng):
        def child():
            yield eng.timeout(1)
            raise ValueError("boom")

        eng.process(child())
        with pytest.raises(ValueError):
            eng.run()

    def test_yield_non_event_fails_process(self, eng):
        def bad():
            yield 5

        p = eng.process(bad())
        with pytest.raises(SimulationError):
            eng.run(p)

    def test_join_already_finished_process(self, eng):
        def quick():
            return "done"
            yield  # pragma: no cover

        def parent():
            p = eng.process(quick())
            yield eng.timeout(5)
            v = yield p
            return v

        assert eng.run(eng.process(parent())) == "done"


class TestInterrupts:
    def test_interrupt_wakes_sleeping_process(self, eng):
        def sleeper():
            try:
                yield eng.timeout(100)
                return "slept"
            except Interrupt as i:
                return f"interrupted:{i.cause}"

        def interrupter(target):
            yield eng.timeout(3)
            target.interrupt("migration")

        p = eng.process(sleeper())
        eng.process(interrupter(p))
        assert eng.run(p) == "interrupted:migration"
        assert eng.now == 3

    def test_interrupt_terminated_process_rejected(self, eng):
        def quick():
            yield eng.timeout(1)

        p = eng.process(quick())
        eng.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, eng):
        def proc():
            me = eng.active_process
            with pytest.raises(SimulationError):
                me.interrupt()
            yield eng.timeout(0)

        eng.run(eng.process(proc()))

    def test_process_can_resume_waiting_after_interrupt(self, eng):
        def sleeper():
            deadline = eng.timeout(10)
            try:
                yield deadline
            except Interrupt:
                pass
            yield deadline  # keep waiting for the original event
            return eng.now

        def interrupter(target):
            yield eng.timeout(2)
            target.interrupt()

        p = eng.process(sleeper())
        eng.process(interrupter(p))
        assert eng.run(p) == 10


class TestConditions:
    def test_all_of_waits_for_slowest(self, eng):
        def proc():
            yield eng.timeout(1) & eng.timeout(5)
            return eng.now

        assert eng.run(eng.process(proc())) == 5

    def test_any_of_takes_fastest(self, eng):
        def proc():
            yield eng.timeout(1) | eng.timeout(5)
            return eng.now

        assert eng.run(eng.process(proc())) == 1

    def test_any_of_result_contains_winner(self, eng):
        def proc():
            fast = eng.timeout(1, value="fast")
            slow = eng.timeout(5, value="slow")
            result = yield fast | slow
            return result

        res = eng.run(eng.process(proc()))
        assert list(res.values()) == ["fast"]

    def test_empty_all_of_succeeds_immediately(self, eng):
        def proc():
            yield eng.all_of([])
            return eng.now

        assert eng.run(eng.process(proc())) == 0.0


class TestEvents:
    def test_manual_event_succeed(self, eng):
        ev = eng.event()

        def waiter():
            v = yield ev
            return v

        def firer():
            yield eng.timeout(2)
            ev.succeed("payload")

        p = eng.process(waiter())
        eng.process(firer())
        assert eng.run(p) == "payload"

    def test_double_trigger_rejected(self, eng):
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, eng):
        ev = eng.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, eng):
        ev = eng.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_run_until_event(self, eng):
        ev = eng.event()

        def firer():
            yield eng.timeout(7)
            ev.succeed(99)

        eng.process(firer())
        assert eng.run(until=ev) == 99
        assert eng.now == 7

    def test_run_until_event_never_fires(self, eng):
        ev = eng.event()

        def proc():
            yield eng.timeout(1)

        eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run(until=ev)

    def test_step_empty_schedule(self, eng):
        with pytest.raises(SimulationError):
            eng.step()

    def test_peek(self, eng):
        assert eng.peek() == float("inf")
        eng.timeout(4)
        assert eng.peek() == 4


class TestStopEventHygiene:
    """run(until=<event>) and step() stop the drain with a halt key; it
    must never outlive the call that pushed it."""

    def test_run_out_of_events_unhooks_the_stop_event(self, eng):
        ev = eng.event()
        eng.call_later(1.0, lambda: None)
        with pytest.raises(SimulationError):
            eng.run(until=ev)
        assert ev.callbacks == []
        log = []
        eng.call_later(1.0, ev.succeed, "late")
        eng.call_later(2.0, log.append, "after")
        eng.run()                       # ev fires mid-run: no early stop
        assert ev.processed
        assert log == ["after"]
        assert eng.now == 3.0

    @pytest.mark.parametrize("drive", ["run_until", "step"])
    def test_failed_event_leaves_no_halt_key(self, eng, drive):
        boom = eng.event()
        boom.fail(ValueError("boom"))   # undefused, fires at t=0
        log = []
        eng.call_later(0.0, log.append, "same-time")
        eng.call_later(2.0, log.append, "later")
        with pytest.raises(ValueError):
            if drive == "step":
                eng.step()
            else:
                eng.run(until=boom)
        assert _HALT not in eng._keys
        assert eng.peek() == 0.0
        eng.run()
        assert log == ["same-time", "later"]
        assert eng.peek() == float("inf")

    def test_failed_last_entry_leaves_next_real_time(self, eng):
        boom = eng.event()
        boom.fail(ValueError("boom"))
        eng.call_later(2.0, lambda: None)
        with pytest.raises(ValueError):
            eng.step()
        assert _HALT not in eng._keys
        assert eng.peek() == 2.0
        eng.run()
        assert eng.now == 2.0

    def test_step_then_run_until_event_keeps_fifo(self, eng):
        log = []
        eng.call_at(1.0, log.append, "a")
        eng.call_at(1.0, log.append, "b")
        stop = eng.timeout(1.0, value="stop")
        eng.call_at(1.0, log.append, "c")
        eng.call_at(1.0, log.append, "d")
        eng.step()
        assert log == ["a"]
        assert eng.run(until=stop) == "stop"
        assert log == ["a", "b"]
        eng.step()
        assert log == ["a", "b", "c"]
        eng.call_at(1.0, log.append, "e")   # same key, still-live bucket
        eng.run()
        assert log == ["a", "b", "c", "d", "e"]
        assert eng.events_dispatched == 6
