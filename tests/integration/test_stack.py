"""Unit-level tests of the stack builder (the module behind E03)."""

import pytest

from repro import VideoCloud, build_video_cloud
from repro.common.calibration import Calibration
from repro.common.errors import ConfigError
from repro.one import OneState
from repro.reconcile import AutoscalePolicy, FleetSpec, HealthPolicy, PoolSpec
from repro.stack import enable_gray_tolerance


class TestBuildVideoCloud:
    @pytest.mark.parametrize("n_hosts, flags", [
        (3, {}),
        (5, {"reconcile": True}),
        (4, {"ha": True}),
        (8, {"reconcile": True, "ha": True}),   # never combined
    ], ids=["plain", "reconcile", "ha", "reconcile+ha"])
    def test_minimum_size_enforced(self, n_hosts, flags):
        with pytest.raises(ConfigError):
            build_video_cloud(n_hosts, **flags)

    def test_gray_tolerance_needs_a_reconciler(self):
        vc = build_video_cloud(5, deploy_vms=False)
        with pytest.raises(ConfigError):
            enable_gray_tolerance(vc)

    def test_without_vm_layer_is_fast(self):
        vc = build_video_cloud(5, deploy_vms=False)
        assert isinstance(vc, VideoCloud)
        assert vc.cluster.now == 0.0
        assert vc.services.services == {}
        # upper layers still usable
        assert sorted(vc.fs.datanodes) == vc.cluster.host_names[1:]
        assert vc.portal.web_host == vc.cluster.host_names[1]

    def test_with_vm_layer_boots_guests(self):
        vc = build_video_cloud(5, seed=3)
        service = vc.services.services["video-cloud"]
        assert len(service.vms) == 4
        assert all(vm.state is OneState.RUNNING for vm in service.vms)
        assert vc.cluster.now > 0

    def test_custom_calibration_respected(self):
        cal = Calibration(cores_per_host=2)
        vc = build_video_cloud(5, cal=cal, deploy_vms=False)
        assert all(h.cores == 2 for h in vc.cluster.hosts)

    def test_hypervisor_choice(self):
        vc = build_video_cloud(5, hypervisor="xen", deploy_vms=False)
        assert all(r.hypervisor.mode == "para" for r in vc.cloud.host_pool)

    def test_same_seed_same_deployment(self):
        a = build_video_cloud(5, seed=11)
        b = build_video_cloud(5, seed=11)
        pa = [vm.host_name for vm in a.services.services["video-cloud"].vms]
        pb = [vm.host_name for vm in b.services.services["video-cloud"].vms]
        assert pa == pb
        assert a.cluster.now == b.cluster.now

    def test_engine_shared_across_layers(self):
        vc = build_video_cloud(5, deploy_vms=False)
        assert vc.engine is vc.cluster.engine
        assert vc.fs.engine is vc.engine
        assert vc.portal.engine is vc.engine
        assert vc.cloud.engine is vc.engine


class TestStackConfiguration:
    """The configuration each flag stands up, pinned as literals so a
    mistyped stack constant fails here, not only in the snapshot gates."""

    def test_reconciled_stack(self):
        vc = build_video_cloud(8, seed=0, reconcile=True)
        assert vc.services.services == {}          # no VM deploy
        assert vc.ft is not None and vc.chaos is not None
        rec = vc.reconciler
        assert rec.spec == FleetSpec(pools=(
            PoolSpec(name="web", replicas=2, version="v1",
                     min_replicas=1, max_replicas=7,
                     health=HealthPolicy(unhealthy_after=2, hung_after=60.0,
                                         backoff_base=5.0)),
            PoolSpec(name="datanodes", replicas=5, version="v1",
                     min_replicas=2, max_replicas=7),
            PoolSpec(name="transcode", replicas=2, version="v1",
                     min_replicas=1, max_replicas=7),
        ))
        assert rec.period == 5.0
        assert [a.policy for a in rec.autoscalers] == [
            AutoscalePolicy(pool="web", high=8.0, low=1.0, up_after=2,
                            down_after=6, cooldown=30.0),
            AutoscalePolicy(pool="transcode", high=0.5, low=0.05, up_after=2,
                            down_after=6, cooldown=30.0),
        ]
        assert list(vc.fs.datanodes) == ["node1", "node2", "node3", "node4",
                                         "node5"]
        assert vc.fs.replication == 2
        assert vc.fs.block_size == 32 * 1024 * 1024
        assert vc.portal.transcoder.workers == ["node2", "node3"]
        assert list(vc.lb.backends) == ["node1"]
        assert vc.portal.frontend is vc.lb
        assert vc.portal.server.admission.capacity == 16
        assert vc.portal.server.request_budget is None
        assert vc.ha is None and vc.failover is None
        vc.stop_background()
        vc.run()

    def test_reconciled_stack_without_autoscale(self):
        vc = build_video_cloud(8, seed=0, reconcile=True, autoscale=False)
        assert vc.reconciler.autoscalers == []
        vc.stop_background()
        vc.run()

    def test_ha_stack(self):
        vc = build_video_cloud(8, seed=0, ha=True)
        assert vc.services.services == {}          # no VM deploy
        assert vc.ft is not None
        pair = vc.ha
        assert pair.standby_host == "node7"
        assert pair.quorum.hosts == ["node0", "node7", "node1"]
        assert pair.tail_period == 1.0
        assert vc.chaos.ha is pair
        assert vc.failover.pair is pair
        assert vc.failover.period == 1.0
        assert vc.failover.min_interval == 30.0
        assert vc.failover.policy == HealthPolicy()
        assert vc.failover.actions is None
        assert vc.lb is None and vc.reconciler is None
        vc.stop_background()
        vc.run()
