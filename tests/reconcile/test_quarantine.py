"""Slow-node quarantine: suspicion sweeps, probation, cordon wiring."""

import pytest

from repro.chaos import DiskStall
from repro.common.errors import ReconcileError
from repro.hardware import Cluster
from repro.reconcile import FleetSpec, MemberStatus, PoolSpec, Reconciler
from repro.stack import build_video_cloud, enable_gray_tolerance


class FakeBank:
    """Suspicion levels set directly, so each sweep rule is isolated."""

    def __init__(self):
        self.levels = {}

    def targets(self):
        return sorted(self.levels)

    def phi(self, target):
        return self.levels.get(target, 0.0)


class FakeAdapter:
    def members(self):
        return [MemberStatus(name="m1", version="v1", phase="ready")]

    def add_member(self, version):  # pragma: no cover - pool stays converged
        return None

    def remove_member(self, name, *, drain):  # pragma: no cover
        return True


def make(**watch_kw):
    cluster = Cluster(2, seed=0)
    spec = FleetSpec(pools=(
        PoolSpec(name="web", replicas=1, min_replicas=0),))
    rec = Reconciler(cluster, spec, {"web": FakeAdapter()})
    bank = FakeBank()
    watch_kw.setdefault("threshold", 8.0)
    watch_kw.setdefault("sweeps", 2)
    watch_kw.setdefault("probation", 30.0)
    rec.watch_suspicion("gray", bank, **watch_kw)
    return cluster, rec, bank


def sweep_at(cluster, rec, t):
    cluster.engine.run(until=cluster.engine.timeout(t - cluster.engine.now))
    rec.sweep()


class TestValidation:
    def test_rejects_bad_parameters(self):
        cluster = Cluster(2, seed=0)
        spec = FleetSpec(pools=(PoolSpec(name="web", replicas=1,
                                         min_replicas=0),))
        rec = Reconciler(cluster, spec, {"web": FakeAdapter()})
        bank = FakeBank()
        with pytest.raises(ReconcileError):
            rec.watch_suspicion("a", bank, threshold=0.0)
        with pytest.raises(ReconcileError):
            rec.watch_suspicion("a", bank, sweeps=0)
        with pytest.raises(ReconcileError):
            rec.watch_suspicion("a", bank, probation=0.0)

    def test_rejects_duplicate_watch_names(self):
        cluster, rec, bank = make()
        with pytest.raises(ReconcileError, match="gray"):
            rec.watch_suspicion("gray", bank)


class TestSweeps:
    def test_one_hot_sweep_is_not_enough(self):
        cluster, rec, bank = make(sweeps=2)
        bank.levels["n1"] = 50.0
        sweep_at(cluster, rec, 5.0)
        assert rec.quarantined()["gray"] == []
        sweep_at(cluster, rec, 10.0)
        assert rec.quarantined()["gray"] == ["n1"]
        q = [a for a in rec.actions.actions if a.kind == "quarantine"]
        assert len(q) == 1 and q[0].member == "n1"
        assert "phi=50.0" in q[0].detail

    def test_a_blip_resets_the_streak(self):
        cluster, rec, bank = make(sweeps=2)
        bank.levels["n1"] = 50.0
        sweep_at(cluster, rec, 5.0)
        bank.levels["n1"] = 0.0          # recovered between sweeps
        sweep_at(cluster, rec, 10.0)
        bank.levels["n1"] = 50.0         # flares again: streak starts over
        sweep_at(cluster, rec, 15.0)
        assert rec.quarantined()["gray"] == []

    def test_calm_targets_are_never_touched(self):
        cluster, rec, bank = make()
        bank.levels["n1"] = 0.5
        for t in (5.0, 10.0, 15.0, 20.0):
            sweep_at(cluster, rec, t)
        assert rec.quarantined()["gray"] == []
        assert not [a for a in rec.actions.actions
                    if a.kind in ("quarantine", "reinstate")]


class TestProbation:
    def quarantine(self, cluster, rec, bank):
        bank.levels["n1"] = 50.0
        sweep_at(cluster, rec, 5.0)
        sweep_at(cluster, rec, 10.0)
        assert rec.quarantined()["gray"] == ["n1"]

    def test_served_probation_reinstates(self):
        cluster, rec, bank = make(probation=30.0)
        self.quarantine(cluster, rec, bank)
        bank.levels["n1"] = 0.0
        sweep_at(cluster, rec, 15.0)     # calm clock starts here
        sweep_at(cluster, rec, 40.0)
        assert rec.quarantined()["gray"] == ["n1"]   # 25s < 30s
        sweep_at(cluster, rec, 45.0)
        assert rec.quarantined()["gray"] == []
        r = [a for a in rec.actions.actions if a.kind == "reinstate"]
        assert len(r) == 1 and r[0].member == "n1"

    def test_flare_during_probation_restarts_it(self):
        cluster, rec, bank = make(probation=30.0)
        self.quarantine(cluster, rec, bank)
        bank.levels["n1"] = 0.0
        sweep_at(cluster, rec, 15.0)
        bank.levels["n1"] = 50.0         # still sick: probation voided
        sweep_at(cluster, rec, 40.0)
        bank.levels["n1"] = 0.0
        sweep_at(cluster, rec, 45.0)     # calm clock restarts
        sweep_at(cluster, rec, 70.0)
        assert rec.quarantined()["gray"] == ["n1"]
        sweep_at(cluster, rec, 76.0)
        assert rec.quarantined()["gray"] == []

    def test_hooks_fire_on_both_transitions(self):
        events = []
        cluster, rec, bank = make(
            probation=10.0,
            on_quarantine=lambda n: events.append(("q", n)),
            on_reinstate=lambda n: events.append(("r", n)))
        self.quarantine(cluster, rec, bank)
        bank.levels["n1"] = 0.0
        sweep_at(cluster, rec, 15.0)
        sweep_at(cluster, rec, 26.0)
        assert events == [("q", "n1"), ("r", "n1")]


class TestFullStack:
    def test_disk_stalled_datanode_is_cordoned_not_killed(self):
        """The PR's acceptance scenario end-to-end: a severe disk stall
        on one DataNode is quarantined (host cordoned) within the storm
        window, is never declared dead, and is reinstated after serving
        probation once the stall clears."""
        vc = build_video_cloud(8, seed=11, reconcile=True)
        vc.run(until=60.0)
        rec = vc.reconciler
        assert rec.report.open_pools() == []

        enable_gray_tolerance(vc)
        vc.run(until=120.0)              # settle detectors + trackers

        victim = sorted(vc.fs.datanodes)[0]
        # `at` is relative to unleash time (t=120): storm runs t=125..165
        vc.run(vc.chaos.unleash([
            DiskStall(host=victim, at=5.0, duration=40.0, severity="severe"),
        ]))
        assert victim not in vc.fs.namenode.dead_datanodes
        vc.run(until=260.0)
        assert victim not in vc.fs.namenode.dead_datanodes

        quarantines = [a for a in rec.actions.actions
                       if a.kind == "quarantine" and a.member == victim]
        assert quarantines, "victim never quarantined"
        assert 125.0 <= quarantines[0].time <= 165.0
        assert vc.cloud.host_record(victim).cordoned is False  # uncordoned
        reinstates = [a for a in rec.actions.actions
                      if a.kind == "reinstate" and a.member == victim]
        assert reinstates and reinstates[0].time > 165.0
        assert not any(victim in v for v in rec.quarantined().values())

        vc.stop_background()
        vc.cluster.run()                 # engine must drain, never wedge
