"""Pool adapters against the real substrates."""

import pytest

from repro.common.errors import ReconcileError
from repro.reconcile import (
    DataNodePoolAdapter,
    MemberStatus,
    TranscodePoolAdapter,
    WebReplicaPoolAdapter,
)
from repro.stack import build_video_cloud


def test_member_status_rejects_unknown_phase():
    with pytest.raises(ReconcileError):
        MemberStatus(name="x", version="v1", phase="zombie")


@pytest.fixture()
def vc():
    cloud = build_video_cloud(8, seed=11, reconcile=True, autoscale=False)
    yield cloud
    cloud.stop_background()
    cloud.cluster.run()


class TestDataNodePoolAdapter:
    def test_observed_phases(self, vc):
        adapter = vc.reconciler.adapters["datanodes"]
        members = adapter.members()
        assert len(members) == len(vc.fs.datanodes)
        assert all(m.phase == "ready" for m in members)

    def test_add_enrols_a_free_host(self, vc):
        adapter = vc.reconciler.adapters["datanodes"]
        before = set(vc.fs.datanodes)
        name = adapter.add_member("v1")
        assert name is not None and name not in before
        assert name in vc.fs.datanodes
        assert adapter.versions[name] == "v1"

    def test_add_returns_none_when_full(self, vc):
        adapter = vc.reconciler.adapters["datanodes"]
        while adapter.add_member("v1") is not None:
            pass
        assert adapter.add_member("v1") is None

    def test_drain_remove_decommissions(self, vc):
        adapter = vc.reconciler.adapters["datanodes"]
        victim = sorted(vc.fs.datanodes)[-1]
        # no blocks stored: the drain completes on the first call
        assert adapter.remove_member(victim, drain=True)
        assert victim not in vc.fs.datanodes

    def test_hard_remove_drops_dead_node(self, vc):
        adapter = vc.reconciler.adapters["datanodes"]
        victim = sorted(vc.fs.datanodes)[-1]
        vc.fs.kill_datanode(victim)
        assert adapter.remove_member(victim, drain=False)
        assert victim not in vc.fs.datanodes


class TestTranscodePoolAdapter:
    def test_roundtrip(self, vc):
        adapter = vc.reconciler.adapters["transcode"]
        start = list(vc.portal.transcoder.workers)
        name = adapter.add_member("v1")
        assert name in vc.portal.transcoder.workers
        assert adapter.remove_member(name, drain=True)
        assert vc.portal.transcoder.workers == start

    def test_dead_worker_host_is_unhealthy(self, vc):
        adapter = vc.reconciler.adapters["transcode"]
        worker = vc.portal.transcoder.workers[0]
        vc.cluster.host(worker).fail()
        assert adapter.members()[0].phase == "unhealthy"
        vc.cluster.host(worker).recover()


class TestWebReplicaPoolAdapter:
    def test_replica_shares_portal_state(self, vc):
        adapter = vc.reconciler.adapters["web"]
        name = adapter.add_member("v1")
        assert name is not None
        replica = vc.lb.backends[name]
        assert replica.routes is vc.portal.server.routes
        assert replica.admission is vc.portal.server.admission

    def test_drain_is_two_phase(self, vc):
        adapter = vc.reconciler.adapters["web"]
        name = adapter.add_member("v1")
        assert adapter.remove_member(name, drain=False) or True
        name = adapter.add_member("v1")
        assert not adapter.remove_member(name, drain=True)   # draining
        assert name in vc.lb.draining
        assert adapter.remove_member(name, drain=True)       # gone
        assert name not in vc.lb.backends
