"""HA chaos scenarios end to end: kill-active, partition-active, flapping.

Every run drives real client traffic through the failover and feeds the
:mod:`repro.analysis.history` checker -- zero acknowledged-write loss and
zero stale reads are hard assertions, not just "it didn't crash".
"""

import pytest

from repro.analysis import HistoryRecorder, check_history
from repro.chaos import (
    ChaosMonkey,
    FailoverFlap,
    KillActiveNameNode,
    PartitionActiveNameNode,
)
from repro.common.errors import ConfigError
from repro.hardware import Cluster
from repro.stack import build_video_cloud


def run_with_traffic(scenarios, *, seed=0, until=400.0, writes=16):
    """Build an HA cloud, run *scenarios* against seeded traffic, and
    return ``(vc, report, acked_paths)`` after checking the history."""
    vc = build_video_cloud(8, seed=seed, ha=True)
    engine = vc.engine
    recorder = HistoryRecorder(lambda: engine.now)
    client = vc.fs.client("node3")
    client.recorder = recorder
    acked = {}

    def traffic():
        for i in range(writes):
            yield engine.timeout(8.0)
            payload = bytes([i % 251]) * 512
            yield from client.write_file(f"/chaos/f{i}", payload)
            acked[f"/chaos/f{i}"] = payload
            if i % 3 == 2:
                yield from client.read_file(f"/chaos/f{i - 1}")

    engine.process(traffic(), name="traffic")
    done = vc.chaos.unleash(scenarios)
    vc.run(until=until)
    assert done.is_alive is False  # every scenario ran to completion
    vc.stop_background()
    vc.run()
    report = check_history(recorder, final_keys=set(acked))
    return vc, report, acked


class TestKillActive:
    def test_kill_active_fails_over_and_loses_nothing(self):
        vc, report, acked = run_with_traffic(
            [KillActiveNameNode(at=30.0, recover_after=60.0)])
        assert vc.failover.failovers == 1
        assert vc.ha.epoch == 2
        assert len(acked) == 16
        assert report.ok, report.violations
        for path in acked:
            assert vc.fs.namenode.exists(path)
        assert vc.chaos.report.faults  # the injection was logged

    def test_recovered_host_rejoins_as_standby(self):
        vc, report, _ = run_with_traffic(
            [KillActiveNameNode(at=30.0, recover_after=30.0)])
        assert report.ok
        # the rebooted node holds the standby role of the new epoch
        assert vc.ha.standby_host != vc.ha.active_host
        assert vc.cluster.host(vc.ha.standby_host).alive


class TestPartitionActive:
    def test_partition_fails_over_without_split_brain(self):
        vc, report, acked = run_with_traffic(
            [PartitionActiveNameNode(at=30.0, heal_after=60.0)], seed=3)
        assert vc.failover.failovers == 1
        assert report.ok, report.violations
        for path in acked:
            assert vc.fs.namenode.exists(path)
        # the deposed active never committed anything after the fence:
        # both namespaces agree on every surviving path
        for host, nn in vc.ha.nodes():
            assert set(acked) <= set(nn.namespace) or nn is vc.ha.standby


class TestFailoverFlap:
    def test_flap_respects_min_interval_guard(self):
        vc, report, acked = run_with_traffic(
            [FailoverFlap(at=30.0, cycles=2, interval=80.0)],
            until=500.0)
        assert report.ok, report.violations
        # each crash promotes once; the guard prevents extra ping-pong
        assert vc.failover.failovers == 2
        assert vc.ha.epoch == 3
        for path in acked:
            assert vc.fs.namenode.exists(path)

    def test_scenario_validation(self):
        with pytest.raises(ConfigError):
            FailoverFlap(at=-1.0)
        with pytest.raises(ConfigError):
            FailoverFlap(at=0.0, cycles=0)
        with pytest.raises(ConfigError):
            FailoverFlap(at=0.0, interval=0.0)
        with pytest.raises(ConfigError):
            KillActiveNameNode(at=0.0, recover_after=0.0)
        with pytest.raises(ConfigError):
            PartitionActiveNameNode(at=0.0, heal_after=-2.0)


class TestPrimitivesRequirePair:
    def test_ha_primitives_need_a_pair(self):
        cluster = Cluster(4)
        monkey = ChaosMonkey(cluster)
        with pytest.raises(ConfigError):
            monkey.crash_active_namenode()
        with pytest.raises(ConfigError):
            monkey.partition_active_namenode()


class TestDeterminism:
    def test_same_seed_same_history_signature(self):
        sigs = []
        for _ in range(2):
            vc = build_video_cloud(8, seed=42, ha=True)
            engine = vc.engine
            recorder = HistoryRecorder(lambda: engine.now)
            client = vc.fs.client("node2")
            client.recorder = recorder

            def traffic():
                for i in range(8):
                    yield engine.timeout(7.0)
                    yield from client.write_file(f"/d{i}", bytes([i]) * 256)

            engine.process(traffic(), name="traffic")
            vc.chaos.unleash([KillActiveNameNode(at=20.0, recover_after=40.0)])
            vc.run(until=200.0)
            vc.stop_background()
            vc.run()
            sigs.append(recorder.signature())
        assert sigs[0] == sigs[1]
