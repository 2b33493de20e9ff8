"""The full stack of Figure 14, assembled: IaaS -> PaaS -> SaaS.

:func:`build_video_cloud` stands up, in order:

1. a simulated physical cluster (hosts + network);
2. **IaaS** -- an OpenNebula cloud on a KVM host pool; one VM per compute
   host is deployed as a "hadoop-node" service (the paper's virtual
   cluster);
3. **PaaS** -- HDFS across the compute hosts (the DataNodes live where
   the VMs run) plus the MapReduce trackers;
4. **SaaS** -- the VOC portal (Lighttpd/PHP/MySQL analogues, FUSE mount,
   FFmpeg pipeline, Nutch search, Flowplayer streaming).

Flags then add, as plain blocks in this order, the failure machinery
(``fault_tolerance``), the self-healing control plane (``reconcile``)
or NameNode HA (``ha``).  :func:`enable_gray_tolerance` is the one
run-time retrofit: it arms the gray-failure defences on a running
reconciled stack.  Sizes and periods are the module constants below;
only the flags are settable.

Everything shares one event engine, so cross-layer experiments compose --
e.g. live-migrating a VM while an upload converts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .chaos import ChaosMonkey
from .common.calibration import Calibration
from .common.errors import ConfigError
from .common.units import GiB, MiB
from .hardware import Cluster
from .hdfs import HaNameNodePair, Hdfs
from .one import (
    FaultToleranceHook,
    MonitoringService,
    OpenNebula,
    Role,
    ServiceManager,
    ServiceTemplate,
    VmTemplate,
)
from .one.lifecycle import OneState
from .reconcile import (
    AutoscalePolicy,
    Autoscaler,
    DataNodePoolAdapter,
    FailoverController,
    FleetSpec,
    HealthPolicy,
    PoolSpec,
    Reconciler,
    TranscodePoolAdapter,
    WebReplicaPoolAdapter,
    queue_depth_signal,
    shed_rate_signal,
)
from .sim import Engine, Event
from .virt import DiskImage
from .web import LoadBalancer, VideoPortal

#: HDFS layout of every stack
REPLICATION = 2
BLOCK_SIZE = 32 * MiB

#: ``reconcile``: declared web replicas and transcode workers, the
#: reconciler's sweep period, and the portal's admission capacity
WEB_REPLICAS = 2
TRANSCODE_POOL = 2
RECONCILE_PERIOD = 5.0
ADMISSION_CAPACITY = 16

#: ``ha``: the standby's journal tail period, the failover controller's
#: sweep period and the minimum gap between two failovers
HA_TAIL_PERIOD = 1.0
FAILOVER_PERIOD = 1.0
FAILOVER_MIN_INTERVAL = 30.0

#: :func:`enable_gray_tolerance`: suspicion threshold and sweeps to
#: quarantine, probation before reinstatement, hedging budget, the
#: probes that feed the detectors, and when silence condemns a DataNode
PHI_THRESHOLD = 8.0
QUARANTINE_SWEEPS = 2
PROBATION = 20.0
HEDGE_RATIO = 0.2
HEDGE_BURST = 8.0
PROBE_BYTES = 4 * MiB
LB_PROBE_INTERVAL = 1.0
PHI_DEAD_THRESHOLD = 12.0
PHI_DEAD_SWEEPS = 2


@dataclass
class VideoCloud:
    """Handles to every layer of the deployed stack."""

    cluster: Cluster
    cloud: OpenNebula
    services: ServiceManager
    fs: Hdfs
    portal: VideoPortal
    monitoring: MonitoringService | None = None
    ft: FaultToleranceHook | None = None
    chaos: ChaosMonkey | None = None
    lb: LoadBalancer | None = None
    reconciler: Reconciler | None = None
    ha: HaNameNodePair | None = None
    failover: FailoverController | None = None

    @property
    def engine(self) -> Engine:
        return self.cluster.engine

    def run(self, until: float | Event | None = None) -> Any:
        return self.cluster.run(until)

    def stop_background(self) -> None:
        """Stop every periodic loop so the engine can drain to idle."""
        if self.reconciler is not None:
            self.reconciler.stop()
        if self.lb is not None:
            self.lb.stop_probes()
        if self.failover is not None:
            self.failover.stop()
        if self.ft is not None:
            self.ft.stop()
        self.fs.stop()
        # chaos can leave VMs that will never place again; without this the
        # dispatch retry tick keeps the engine alive forever
        self.cloud.stop_scheduler()


def build_video_cloud(
    n_hosts: int = 6,
    *,
    seed: int = 0,
    cal: Calibration | None = None,
    hypervisor: str = "kvm",
    deploy_vms: bool = True,
    fault_tolerance: bool = False,
    reconcile: bool = False,
    autoscale: bool = True,
    ha: bool = False,
) -> VideoCloud:
    """Stand the whole paper stack up; returns once everything is RUNNING.

    The front-end is host 0 (OpenNebula + NameNode); the web tier runs on
    host 1; hosts 1..n-1 are compute/DataNodes and transcoding workers.
    With ``deploy_vms`` the IaaS layer first boots one guest per compute
    host (drains simulated time for image staging + boot, as on the real
    testbed); disable it for benches that only need the upper layers.

    With ``fault_tolerance`` the stack also gets its failure machinery:
    HDFS heartbeats + replication monitor are started, a MonitoringService
    polls the host pool, the OpenNebula FT hook resurrects VMs of dead
    hosts, and a seeded ChaosMonkey (sharing the hook's report) is handed
    back for fault injection.  Call ``stop_background()`` afterwards so
    the engine can drain.

    ``reconcile`` (at least 6 hosts) adds the closed-loop control plane
    of :mod:`repro.reconcile`: a :class:`~repro.web.LoadBalancer` in
    front of the portal, a :class:`~repro.reconcile.FleetSpec` of three
    pools (web replicas, HDFS DataNodes, transcode workers) and a
    :class:`~repro.reconcile.Reconciler` that converges the fleet onto
    it each sweep -- replacing dead members, scaling on admission
    pressure (``autoscale``) and rolling upgrades when a pool's version
    moves.  Only some hosts are seeded into each pool, so the reconciler
    has headroom to scale and to place replacements.

    ``ha`` (at least 5 hosts) adds NameNode HA: a standby NameNode on
    the last host (which the NameNode and web tier both avoid), a
    three-node journal quorum (NameNode host, standby, web host), the
    standby tailer and a
    :class:`~repro.reconcile.FailoverController`.  The portal gains an
    ``hdfs-ha`` health probe and the ChaosMonkey is pointed at the pair,
    so ``KillActiveNameNode``-style scenarios resolve the active at fire
    time.

    ``reconcile`` and ``ha`` each imply ``fault_tolerance=True`` and
    ``deploy_vms=False``; they cannot be combined.
    """
    if reconcile and ha:
        raise ConfigError("reconcile and ha cannot be combined")
    if reconcile or ha:
        deploy_vms, fault_tolerance = False, True
    minimum = 6 if reconcile else 5 if ha else 4
    if n_hosts < minimum:
        raise ConfigError(f"this stack needs at least {minimum} hosts")
    cluster = Cluster(n_hosts, seed=seed, cal=cal)
    front = cluster.host_names[0]
    compute = cluster.host_names[1:]

    cloud = OpenNebula(cluster, front_end=front, hypervisor=hypervisor)
    for name in compute:
        cloud.add_host(name)
    cloud.register_image(DiskImage("ubuntu-10.04-hadoop", size=2 * GiB))
    services = ServiceManager(cloud)

    if deploy_vms:
        node_tpl = VmTemplate(
            name="hadoop-node", vcpus=2, memory=2 * GiB,
            image="ubuntu-10.04-hadoop", dirty_rate=8 * MiB,
        )
        service = ServiceTemplate(
            "video-cloud",
            roles=[Role("hadoop", node_tpl, cardinality=len(compute))],
        )
        deploy = cluster.engine.process(services.deploy(service))
        cluster.run(deploy)

    fs = Hdfs(
        cluster, namenode_host=front, datanode_hosts=compute,
        replication=REPLICATION, block_size=BLOCK_SIZE,
    )
    portal = VideoPortal(
        cluster, fs, web_host=compute[0], transcode_workers=compute[1:] or compute,
    )

    def _scheduler_health() -> str | None:
        dead = [r.host.name for r in cloud.host_pool if not r.host.alive]
        pending = len(cloud.vms_in_state(OneState.PENDING))
        if dead:
            return f"{len(dead)} compute host(s) down: {', '.join(sorted(dead))}"
        if pending:
            return f"{pending} VM(s) stuck PENDING"
        return None

    portal.add_health_provider("scheduler", _scheduler_health)
    vc = VideoCloud(cluster=cluster, cloud=cloud, services=services,
                    fs=fs, portal=portal)
    if fault_tolerance:
        fs.start()
        vc.monitoring = MonitoringService(
            cloud, period=cluster.cal.hadoop.heartbeat_interval)
        vc.chaos = ChaosMonkey(cluster, cloud=cloud, fs=fs, portal=portal)
        vc.ft = FaultToleranceHook(cloud, vc.monitoring, report=vc.chaos.report)
        vc.ft.start()

    if reconcile:
        # no per-request budget: bulk uploads legitimately run long, and
        # the autoscaler (not a deadline) is the pressure-relief mechanism
        portal.enable_overload_control(capacity=ADMISSION_CAPACITY,
                                       request_budget=None)
        # the web tier moves behind a load balancer; the primary server
        # becomes backend #1 and the reconciler grows the pool from there
        lb = LoadBalancer(cluster)
        lb.add_backend(portal.web_host, portal.server)
        portal.frontend = lb
        # trim the transcode pool to its declared size (the portal seeds
        # every compute host); the reconciler owns it from here on
        del portal.transcoder.workers[TRANSCODE_POOL:]
        n_dn = max(REPLICATION, len(compute) - 2)
        for name in list(fs.datanodes)[n_dn:]:
            fs.drop_datanode(name)

        spec = FleetSpec(pools=(
            PoolSpec(name="web", replicas=WEB_REPLICAS, version="v1",
                     min_replicas=1, max_replicas=len(compute),
                     health=HealthPolicy(unhealthy_after=2,
                                         hung_after=12 * RECONCILE_PERIOD,
                                         backoff_base=RECONCILE_PERIOD)),
            PoolSpec(name="datanodes", replicas=n_dn, version="v1",
                     min_replicas=REPLICATION, max_replicas=len(compute)),
            PoolSpec(name="transcode", replicas=TRANSCODE_POOL, version="v1",
                     min_replicas=1, max_replicas=len(compute)),
        ))
        adapters = {
            "web": WebReplicaPoolAdapter(portal, lb, "web", compute),
            "datanodes": DataNodePoolAdapter(fs, "datanodes", compute),
            "transcode": TranscodePoolAdapter(portal, "transcode", compute),
        }
        autoscalers = []
        if autoscale:
            engine = cluster.engine
            autoscalers = [
                Autoscaler(AutoscalePolicy(pool="web", high=8.0, low=1.0,
                                           up_after=2, down_after=6,
                                           cooldown=6 * RECONCILE_PERIOD),
                           queue_depth_signal(cluster.metrics)),
                Autoscaler(AutoscalePolicy(pool="transcode", high=0.5, low=0.05,
                                           up_after=2, down_after=6,
                                           cooldown=6 * RECONCILE_PERIOD),
                           shed_rate_signal(cluster.metrics,
                                            lambda: engine.now)),
            ]
        vc.lb = lb
        vc.reconciler = Reconciler(
            cluster, spec, adapters, autoscalers=autoscalers,
            period=RECONCILE_PERIOD, cloud=cloud,
        )
        vc.reconciler.start()

    if ha:
        standby = cluster.host_names[-1]
        pair = HaNameNodePair(fs, standby_host=standby,
                              journal_hosts=[front, standby, compute[0]],
                              tail_period=HA_TAIL_PERIOD)
        pair.start()
        vc.failover = FailoverController(pair, period=FAILOVER_PERIOD,
                                         min_interval=FAILOVER_MIN_INTERVAL)
        vc.failover.start()

        def _ha_health() -> str | None:
            reason = pair.active_quorum_degraded()
            if reason is not None:
                return reason
            if not pair.caught_up():
                return "standby lagging behind the journal quorum"
            return None

        portal.add_health_provider("hdfs-ha", _ha_health)
        vc.chaos.ha = pair
        vc.ha = pair
    return vc


def enable_gray_tolerance(vc: VideoCloud) -> None:
    """Arm the gray-failure defences on a running reconciled stack.

    Wires together the whole tail-tolerance story:

    * HDFS heartbeats become probes feeding a phi-accrual detector
      (:meth:`~repro.hdfs.Hdfs.enable_gray_detection`); DataNode *death*
      keys off the ungated liveness bank, so a slow-but-alive node is
      quarantined while only true silence condemns it;
    * block reads hedge against the EWMA tail
      (:meth:`~repro.hdfs.Hdfs.enable_hedged_reads`);
    * load-balancer backends get probe-fed suspicion gating and hedged
      GET dispatch;
    * the reconciler watches both suspicion banks and quarantines slow
      nodes -- cordoned in the cloud, drained at the load balancer --
      with automatic probation reinstatement.

    The stack must have been built with ``reconcile=True``.
    """
    rec, lb, fs = vc.reconciler, vc.lb, vc.fs
    if rec is None or lb is None:
        raise ConfigError("gray tolerance needs a stack built with reconcile=True")
    bank = fs.enable_gray_detection(
        phi_dead_threshold=PHI_DEAD_THRESHOLD,
        phi_dead_sweeps=PHI_DEAD_SWEEPS,
        probe_bytes=PROBE_BYTES,
    )
    fs.enable_hedged_reads(ratio=HEDGE_RATIO, burst=HEDGE_BURST)
    rec.watch_suspicion(
        "datanodes-gray", bank, threshold=PHI_THRESHOLD,
        sweeps=QUARANTINE_SWEEPS, probation=PROBATION,
    )
    lb_bank = lb.enable_gray_gate(
        threshold=PHI_THRESHOLD, interval=LB_PROBE_INTERVAL,
        probe_from=fs.namenode_host,
    )
    lb.enable_hedged_dispatch(ratio=HEDGE_RATIO, burst=HEDGE_BURST)

    def _drain(name: str) -> None:
        if name in lb.backends and name not in lb.draining:
            lb.drain(name)

    def _undrain(name: str) -> None:
        if name in lb.backends:
            lb.undrain(name)

    rec.watch_suspicion(
        "web-gray", lb_bank, threshold=PHI_THRESHOLD,
        sweeps=QUARANTINE_SWEEPS, probation=PROBATION,
        on_quarantine=_drain, on_reinstate=_undrain,
    )
