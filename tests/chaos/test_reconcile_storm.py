"""ReconcileStorm: compound chaos vs the self-healing control plane."""

import pytest

from repro.common.errors import ConfigError
from repro.chaos import ReconcileStorm
from repro.stack import build_video_cloud


def run_storm(seed, *, autoscale=False, settle=60.0, tail=600.0):
    vc = build_video_cloud(8, seed=seed, reconcile=True, autoscale=autoscale)
    vc.run(until=settle)
    storm = ReconcileStorm(crash="node2", isolated=("node5",), at=0.0,
                           heal_after=180.0)
    done = vc.chaos.unleash([storm])
    vc.run(done)
    vc.run(until=vc.engine.now + tail)
    return vc


class TestScenarioValidation:
    def test_rejects_empty_partition(self):
        with pytest.raises(ConfigError):
            ReconcileStorm(crash="node2", isolated=())

    def test_rejects_crash_host_in_partition(self):
        with pytest.raises(ConfigError):
            ReconcileStorm(crash="node2", isolated=("node2",))

    def test_children_compose_primitives(self):
        storm = ReconcileStorm(crash="node2", isolated=("node5",))
        kinds = [c.kind for c in storm.children()]
        assert kinds == ["host_crash", "partition",
                         "overload_storm", "overload_storm"]


class TestConvergence:
    def test_fleet_reconverges_with_zero_manual_calls(self):
        vc = run_storm(seed=7)
        rec = vc.reconciler
        # every pool is back on spec
        assert rec.report.open_pools() == []
        counts = rec.actions.counts()
        assert counts.get("replace", 0) >= 1, counts
        # the dead host's members were replaced elsewhere
        spec = rec.spec
        assert len(vc.lb.backends) == spec.pool("web").replicas
        assert len(vc.fs.datanodes) == spec.pool("datanodes").replicas
        assert (len(vc.portal.transcoder.workers)
                == spec.pool("transcode").replicas)
        # convergence times are measured and finite
        assert rec.report.convergence_times()
        assert rec.report.max_convergence_time() > 0.0
        vc.stop_background()
        vc.cluster.run()

    def test_engine_drains_after_storm(self):
        vc = run_storm(seed=7, tail=100.0)
        vc.stop_background()
        vc.cluster.run()        # hangs if any zombie loop survives


class TestUpgradeUnderFire:
    def test_crashed_surge_member_triggers_rollback(self):
        vc = build_video_cloud(8, seed=9, reconcile=True, autoscale=False)
        vc.run(until=60.0)
        rec = vc.reconciler
        assert rec.report.open_pools() == []
        rec.apply(rec.spec.with_version("web", "v2"))
        # run until the surge replica exists, then kill its host
        for _ in range(40):
            vc.run(until=vc.engine.now + rec.period)
            surge = [m for m in rec.adapters["web"].members()
                     if m.version == "v2"]
            if surge:
                break
        assert surge, "upgrade never surged"
        vc.chaos.crash_host(surge[0].host)
        vc.run(until=vc.engine.now + 20 * rec.period)
        kinds = rec.actions.counts()
        assert kinds.get("rollback", 0) == 1, kinds
        # pool reconverged on the last good version, v2 is banned
        assert rec.report.open_pools() == []
        members = rec.adapters["web"].members()
        assert all(m.version == "v1" for m in members)
        assert kinds.get("upgrade_done", 0) == 0
        vc.stop_background()
        vc.cluster.run()

    def test_healthy_upgrade_completes(self):
        vc = build_video_cloud(8, seed=9, reconcile=True, autoscale=False)
        vc.run(until=60.0)
        rec = vc.reconciler
        rec.apply(rec.spec.with_version("transcode", "v2"))
        vc.run(until=vc.engine.now + 30 * rec.period)
        assert rec.actions.counts().get("upgrade_done", 0) == 1
        members = rec.adapters["transcode"].members()
        assert all(m.version == "v2" for m in members)
        assert rec.report.open_pools() == []
        vc.stop_background()
        vc.cluster.run()


class TestDeterminism:
    def test_identical_seeds_give_identical_logs(self):
        def signatures(seed):
            vc = run_storm(seed, autoscale=True, tail=300.0)
            rec = vc.reconciler
            out = (rec.actions.signature(), rec.report.signature())
            vc.stop_background()
            vc.cluster.run()
            return out

        assert signatures(13) == signatures(13)

    def test_different_seeds_still_converge(self):
        vc = run_storm(seed=21)
        assert vc.reconciler.report.open_pools() == []
        vc.stop_background()
        vc.cluster.run()
