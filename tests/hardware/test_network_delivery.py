"""Timer cells against the Process-per-timer oracle, and what they cost.

`Network` schedules rate-change timers and flow deliveries as
``call_later`` cells; `ProcessNetwork` (the oracle) starts a kernel
process for each.  Under random churn both must fire every completion at
the same instant, in the same order, with the same outcome.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.calibration import Calibration
from repro.common.units import MiB, Mbps
from repro.hardware import Network, PhysicalHost
from repro.sim import Engine

from tests.hardware.process_network_oracle import ProcessNetwork

CAL = Calibration()
LAT = CAL.net_latency
NIC_RATES = (4 * Mbps, 16 * Mbps, 1000 * Mbps / 3, 7 * Mbps / 3)


def fabric(cls, rates):
    engine = Engine()
    net = cls(engine, CAL)
    for i, rate in enumerate(rates):
        net.attach(PhysicalHost(engine, f"h{i}", CAL), nic_rate=rate)
    return engine, net


def run_plan(cls, rates, actions):
    """Drive *actions* through a fresh fabric of class *cls*.

    Returns the firing log -- (transfer index, time, ok, value or
    exception text) in the order the completion events fired -- the
    delivered bytes and the final clock.
    """
    engine, net = fabric(cls, rates)
    log = []

    def fired(index, ev):
        outcome = ev.value if ev.ok else f"{type(ev.value).__name__}: {ev.value}"
        log.append((index, engine.now, ev.ok, outcome))

    def act(index, kind, at, *args):
        yield engine.timeout(at)
        if kind == "transfer":
            src, dst, size = args
            ev = net.transfer(f"h{src}", f"h{dst}", size)
            ev.callbacks.append(lambda ev: fired(index, ev))
        elif kind == "degrade":
            net.set_link_factor(f"h{args[0]}", args[1])
        elif kind == "latency":
            net.set_extra_latency(f"h{args[0]}", args[1])
        elif kind == "restore":
            net.restore(f"h{args[0]}")
        elif kind == "cut":
            net.cut(f"h{args[0]}")
        elif kind == "partition":
            net.partition(f"h{i}" for i in args[0])
        else:
            net.heal_partition()

    for index, action in enumerate(actions):
        engine.process(act(index, *action))
    engine.run()
    assert net.active_flow_count() == 0
    return log, net.bytes_delivered, engine.now


@st.composite
def churn_plans(draw):
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    rates = draw(st.lists(st.sampled_from(NIC_RATES),
                          min_size=n_hosts, max_size=n_hosts))
    host = st.integers(min_value=0, max_value=n_hosts - 1)
    # round instants and latency multiples make starts, faults and
    # deliveries collide, so same-instant ordering is exercised
    at = st.one_of(st.sampled_from((0.0, LAT, 2 * LAT, 0.5, 1.0, 1.0 + LAT)),
                   st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
    size = st.one_of(st.just(0.0),
                     st.integers(min_value=1, max_value=8).map(lambda k: k * MiB / 8),
                     st.floats(min_value=1.0, max_value=2 * MiB, allow_nan=False))
    actions = draw(st.lists(st.one_of(
        st.tuples(st.just("transfer"), at, host, host, size),
        st.tuples(st.just("degrade"), at, host,
                  st.floats(min_value=0.05, max_value=1.0)),
        st.tuples(st.just("latency"), at, host,
                  st.sampled_from((0.0, LAT, 3 * LAT, 0.01))),
        st.tuples(st.just("restore"), at, host),
        st.tuples(st.just("cut"), at, host),
        st.tuples(st.just("partition"), at,
                  st.sets(host, min_size=1, max_size=n_hosts - 1)),
        st.tuples(st.just("heal"), at),
    ), min_size=1, max_size=40))
    return rates, actions


class TestCellsMatchProcessOracle:
    @given(churn_plans())
    @settings(max_examples=200, deadline=None)
    def test_same_firings_bytes_and_clock(self, plan):
        rates, actions = plan
        got = run_plan(Network, rates, actions)
        expected = run_plan(ProcessNetwork, rates, actions)
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2] == expected[2]


def dispatched(cls, src, dst, nbytes, cut=None):
    """Schedule entries one transfer dispatches from start to finish."""
    engine, net = fabric(cls, (CAL.nic_rate,) * 3)
    if cut is not None:
        net.cut(cut)
    net.transfer(src, dst, nbytes)
    before = engine.events_dispatched
    engine.run()
    return engine.events_dispatched - before


class TestScheduleEntries:
    @pytest.mark.parametrize("cls, entries", [(Network, 3), (ProcessNetwork, 7)])
    def test_lone_transfer(self, cls, entries):
        # timer, delivery, completion event; the oracle adds an
        # initialise and an exit entry to each of its two processes
        assert dispatched(cls, "h0", "h1", MiB) == entries

    @pytest.mark.parametrize("cls, entries", [(Network, 2), (ProcessNetwork, 4)])
    @pytest.mark.parametrize("src, dst, nbytes, cut", [
        ("h0", "h0", MiB, None),        # loopback
        ("h0", "h1", 0, None),          # zero bytes
        ("h0", "h1", MiB, "h1"),        # unreachable
    ])
    def test_special_cases(self, cls, entries, src, dst, nbytes, cut):
        assert dispatched(cls, src, dst, nbytes, cut) == entries

    def test_churn_starts_no_process_from_the_fabric(self, monkeypatch):
        callers = []

        def spy(original):
            def wrapper(engine, *args, **kwargs):
                callers.append(sys._getframe(1).f_globals["__name__"])
                return original(engine, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(Engine, "process", spy(Engine.process))
        monkeypatch.setattr(Engine, "timeout", spy(Engine.timeout))
        actions = [("transfer", 0.1 * i, i % 4, (i * 3 + 1) % 4, i * MiB / 4)
                   for i in range(12)]
        actions += [("transfer", 0.2, 1, 1, MiB), ("cut", 0.5, 2),
                    ("partition", 1.0, {0}), ("transfer", 1.1, 0, 3, MiB),
                    ("heal", 1.5), ("restore", 1.6, 2), ("degrade", 1.7, 3, 0.5)]

        log, _, _ = run_plan(Network, (CAL.nic_rate,) * 4, actions)
        assert len(log) == 14 and not all(ok for _, _, ok, _ in log)
        assert "repro.hardware.network" not in callers
        callers.clear()
        run_plan(ProcessNetwork, (CAL.nic_rate,) * 4, actions)
        assert "tests.hardware.process_network_oracle" in callers
