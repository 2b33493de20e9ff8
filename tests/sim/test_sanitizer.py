"""Happens-before sanitizer: race detection over kernel shared state.

The planted scenarios mirror the hazards the static RACE rules describe:
same-timestamp check-then-act against a Container, unordered writes to
the same field, and the causally-ordered counterparts that must *not*
be flagged (scheduling edges order them).
"""

from __future__ import annotations

from repro.sim import Container, Engine, Resource, Store
from repro.sim import sanitizer as sanitizer_mod


def test_enable_disable_roundtrip_restores_fast_path():
    env = Engine()
    assert "call_later" not in env.__dict__
    san = env.enable_sanitizer()
    assert env.enable_sanitizer() is san          # idempotent
    assert sanitizer_mod.ACTIVE is san
    assert "call_later" in env.__dict__           # instrumented wrappers on
    env.disable_sanitizer()
    assert sanitizer_mod.ACTIVE is None
    assert "call_later" not in env.__dict__       # class fast path restored
    assert "call_at" not in env.__dict__
    assert "_schedule" not in env.__dict__


def test_same_time_read_write_race_is_flagged():
    env = Engine()
    tank = Container(env, capacity=10, init=3)
    san = env.enable_sanitizer()
    san.track(tank, "tank")

    def consumer():
        yield env.timeout(1.0)
        if tank.level >= 5:                       # check ...
            yield tank.get(5)                     # ... then act

    def producer():
        yield env.timeout(1.0)
        yield tank.put(3)

    env.process(consumer(), name="consumer")
    env.process(producer(), name="producer")
    env.run()
    env.disable_sanitizer()

    assert not san.ok
    kinds = {r.kind for r in san.races}
    assert "read-write" in kinds
    race = san.races[0]
    assert race.obj == "tank"
    assert race.field == "level"
    assert race.time == 1.0
    assert "tank.level" in race.format()


def test_causally_ordered_accesses_are_not_flagged():
    env = Engine()
    tank = Container(env, capacity=10, init=0)
    san = env.enable_sanitizer()
    san.track(tank, "tank")
    gate = env.event()

    def producer():
        yield env.timeout(1.0)
        yield tank.put(5)                 # write ...
        gate.succeed()                    # ... then signal

    def consumer():
        yield gate                        # scheduling edge orders the read
        assert tank.level == 5.0

    env.process(producer(), name="producer")
    env.process(consumer(), name="consumer")
    env.run()
    env.disable_sanitizer()
    assert san.ok, san.report()


def test_different_time_accesses_are_not_flagged():
    env = Engine()
    tank = Container(env, capacity=10, init=5)
    san = env.enable_sanitizer()

    def reader():
        yield env.timeout(1.0)
        assert tank.level == 5.0

    def writer():
        yield env.timeout(2.0)            # strictly later: never a race
        yield tank.put(1)

    env.process(reader(), name="reader")
    env.process(writer(), name="writer")
    env.run()
    env.disable_sanitizer()
    assert san.ok, san.report()


def test_same_time_write_write_race_is_flagged():
    env = Engine()
    store = Store(env)

    def putter(tag):
        yield env.timeout(1.0)
        yield store.put(tag)

    san = env.enable_sanitizer()
    san.track(store, "queue")
    env.process(putter("a"), name="a")
    env.process(putter("b"), name="b")
    env.run()
    env.disable_sanitizer()
    assert any(r.kind == "write-write" for r in san.races), san.report()


def test_resource_requests_from_unordered_processes_are_flagged():
    env = Engine()
    cpu = Resource(env, capacity=1)

    def claimant():
        yield env.timeout(1.0)
        with cpu.request() as req:
            yield req

    san = env.enable_sanitizer()
    env.process(claimant(), name="p1")
    env.process(claimant(), name="p2")
    env.run()
    env.disable_sanitizer()
    assert any(r.field == "slots" for r in san.races), san.report()


def test_untracked_objects_get_derived_names():
    env = Engine()
    tank = Container(env, init=1)
    san = env.enable_sanitizer()

    def toucher():
        yield env.timeout(1.0)
        yield tank.put(1)

    def reader():
        yield env.timeout(1.0)
        assert tank.level >= 0

    env.process(toucher(), name="t")
    env.process(reader(), name="r")
    env.run()
    env.disable_sanitizer()
    assert san.races
    assert san.races[0].obj.startswith("Container#")


def test_report_counts_accesses_and_dedups_repeats():
    env = Engine()
    tank = Container(env, init=1)
    san = env.enable_sanitizer()
    san.track(tank, "tank")

    def writer():
        for _ in range(5):                # same pair every round: one record
            yield env.timeout(1.0)
            yield tank.put(1)

    def reader():
        for _ in range(5):
            yield env.timeout(1.0)
            assert tank.level >= 0

    env.process(writer(), name="writer")
    env.process(reader(), name="reader")
    env.run()
    env.disable_sanitizer()
    assert san.accesses >= 10
    # five rounds of the same conflict collapse to the distinct ordered
    # pairs (write-then-read, read-then-write), not one record per round
    assert len(san.races) <= 2
    assert "race(s)" in san.report()


def test_clean_run_reports_ok():
    env = Engine()
    san = env.enable_sanitizer()

    def quiet():
        yield env.timeout(1.0)

    env.process(quiet(), name="quiet")
    env.run()
    env.disable_sanitizer()
    assert san.ok
    assert "no races" in san.report()


def test_run_returning_is_a_synchronization_barrier():
    # the caller resumes only after every dispatched event finished, so
    # reading shared state between two run() calls -- at the very
    # timestamp the last event wrote it -- is ordered, not a race
    env = Engine()
    tank = Container(env, capacity=10, init=0)
    san = env.enable_sanitizer()
    san.track(tank, "tank")

    def producer():
        yield env.timeout(1.0)
        yield tank.put(3)

    env.process(producer(), name="producer")
    env.run()
    assert env.now == 1.0
    assert tank.level == 3         # root read at the write's timestamp
    env.run(2.0)                   # and the world keeps running after
    env.disable_sanitizer()
    assert san.ok, san.report()
