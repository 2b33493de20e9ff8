"""The counted max-min solver against its oracle, and completion order."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PartitionError
from repro.common.rng import RngStream
from repro.common.units import MiB, Mbps
from repro.hardware import Cluster

from tests.hardware.maxmin_oracle import max_min_rates

#: few distinct NIC rates, so equal shares (and the tie-break) are common;
#: thirds and sevenths, so residuals round differently if the solver
#: subtracts or breaks ties in another order than the oracle
NIC_RATES = (4 * Mbps, 16 * Mbps, 1000 * Mbps / 3, 7 * Mbps / 3, 10 * Mbps / 7)


def cluster_with(rates):
    cluster = Cluster(1)
    for i, rate in enumerate(rates):
        cluster.add_host(f"h{i}", nic_rate=rate)
    return cluster


def check_every_solve(network):
    """Compare every rate the solver sets with the oracle's, exactly."""
    solve = network._max_min_rates
    solves = []

    def checked():
        solve()
        expected = max_min_rates(network)
        got = {f: f.rate for f in network._flows}
        assert got == expected, [(f.src, f.dst, got[f], expected[f])
                                 for f in got if got[f] != expected[f]]
        solves.append(len(got))

    network._max_min_rates = checked
    return solves


@st.composite
def churn_plans(draw):
    n_hosts = draw(st.integers(min_value=2, max_value=8))
    rates = draw(st.lists(st.sampled_from(NIC_RATES),
                          min_size=n_hosts, max_size=n_hosts))
    host = st.integers(min_value=0, max_value=n_hosts - 1)
    at = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
    # transfers start close together so that many overlap
    transfers = draw(st.lists(
        st.tuples(st.just("transfer"),
                  st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                  host, host, st.integers(min_value=1, max_value=16)),
        min_size=1, max_size=40))
    faults = draw(st.lists(st.one_of(
        st.tuples(st.just("degrade"), at, host,
                  st.floats(min_value=0.05, max_value=1.0)),
        st.tuples(st.just("restore"), at, host),
        st.tuples(st.just("cut"), at, host),
        st.tuples(st.just("partition"), at,
                  st.sets(host, min_size=1, max_size=n_hosts - 1)),
        st.tuples(st.just("heal"), at),
    ), max_size=8))
    return rates, transfers + faults


class TestSolverMatchesOracle:
    @given(churn_plans())
    @settings(max_examples=150, deadline=None)
    def test_rates_equal_oracle_after_every_change(self, plan):
        rates, actions = plan
        cluster = cluster_with(rates)
        net = cluster.network
        names = [f"h{i}" for i in range(len(rates))]
        solves = check_every_solve(net)

        def transfer(src, dst, size):
            try:
                yield net.transfer(names[src], names[dst], size * MiB / 8)
            except PartitionError:
                pass

        def act(kind, at, *args):
            yield cluster.engine.timeout(at)
            if kind == "transfer":
                cluster.engine.process(transfer(*args))
            elif kind == "degrade":
                net.set_link_factor(names[args[0]], args[1])
            elif kind == "restore":
                net.restore(names[args[0]])
            elif kind == "cut":
                net.cut(names[args[0]])
            elif kind == "partition":
                net.partition(names[i] for i in args[0])
            else:
                net.heal_partition()

        for action in actions:
            cluster.engine.process(act(*action))
        cluster.run()
        assert net.active_flow_count() == 0
        if any(a[0] == "transfer" and a[2] != a[3] for a in actions):
            assert solves

    @pytest.mark.parametrize("seed", range(8))
    def test_busy_mesh(self, seed):
        """Dozens of overlapping flows between hosts of mixed NIC rates."""
        rng = RngStream(seed, "busy-mesh")
        cluster = cluster_with([rng.choice(NIC_RATES) for _ in range(12)])
        net = cluster.network
        names = [f"h{i}" for i in range(12)]
        solves = check_every_solve(net)

        def sender(i):
            yield cluster.engine.timeout(rng.uniform(0.0, 2.0))
            for _ in range(4):
                src, dst = rng.choice(names, k=2, replace=False)
                yield net.transfer(src, dst, rng.randint(1, 9) * MiB / 8)

        for i in range(40):
            cluster.engine.process(sender(i))
        cluster.run()
        assert len(solves) > 100 and max(solves) > 20


class TestCompletionOrder:
    """Flows finishing or failing at one instant are handled in start order."""

    N = 12

    def start_equal_flows(self, order):
        """N equal flows into node0 (one shared downlink), started in *order*."""
        cluster = Cluster(self.N + 1)
        events = []
        seen = []
        for i in order:
            ev = cluster.network.transfer(f"node{i + 1}", "node0", MiB)
            ev.callbacks.append(lambda _ev, i=i: seen.append(i))
            events.append(ev)
        return cluster, events, seen

    def test_simultaneous_completions_follow_start_order(self):
        rng = RngStream(3, "completions")
        decoys = []
        for _ in range(8):
            order = rng.shuffle(range(self.N))
            cluster, _, seen = self.start_equal_flows(order)
            cluster.run()
            assert seen == order
            # shift the allocator so the next run's flows land elsewhere
            decoys.append([object() for _ in range(rng.randint(1, 201))])

    def test_flows_failed_by_a_cut_fail_in_start_order(self):
        rng = RngStream(5, "cut")
        decoys = []
        for _ in range(8):
            order = rng.shuffle(range(self.N))
            cluster, events, seen = self.start_equal_flows(order)
            for ev in events:
                ev.defuse()
            cluster.network.cut("node0")
            cluster.run()
            assert seen == order
            assert all(not ev.ok for ev in events)
            decoys.append([object() for _ in range(rng.randint(1, 201))])
