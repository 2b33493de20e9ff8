"""Pool adapters: the reconciler's uniform view over heterogeneous pools.

Each adapter translates between one substrate (HDFS DataNodes,
transcode workers, web replicas behind the load balancer) and
the reconciler's three verbs: *observe* (:meth:`PoolAdapter.members`),
*add* (:meth:`PoolAdapter.add_member`) and *remove*
(:meth:`PoolAdapter.remove_member`).  Adapters never decide anything --
policy (when to replace, how many to run, which version) lives entirely
in the reconciler; adapters only report and execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from ..common.errors import ReconcileError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..hdfs import Hdfs
    from ..web import LoadBalancer, VideoPortal

#: member phases, in "how alive is it" order
PHASES = ("ready", "starting", "unhealthy", "stopping")


@dataclass(frozen=True)
class MemberStatus:
    """One pool member as observed this sweep."""

    name: str
    version: str
    phase: str                      # one of PHASES
    host: str | None = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ReconcileError(f"unknown member phase {self.phase!r}")


class PoolAdapter(Protocol):
    """What the reconciler needs from a pool."""

    def members(self) -> list[MemberStatus]:
        """Observed members, in a deterministic order."""
        ...

    def add_member(self, version: str) -> str | None:
        """Start one member at *version*; returns its name, or None when
        the substrate has no room (no candidate host, quota, ...)."""
        ...

    def remove_member(self, name: str, *, drain: bool) -> bool:
        """Remove member *name*.  With *drain* the member is allowed to
        hand off its state first; returns False while still draining
        (call again next sweep), True once the member is gone."""
        ...


def _free_hosts(candidates: list[str], taken: set[str],
                alive: "dict[str, bool]") -> list[str]:
    return [h for h in candidates if h not in taken and alive.get(h, False)]


class DataNodePoolAdapter:
    """The HDFS DataNode pool: scale-up enrols, scale-down decommissions."""

    def __init__(self, fs: "Hdfs", pool_name: str,
                 candidate_hosts: list[str]) -> None:
        self.fs = fs
        self.pool_name = pool_name
        self.candidate_hosts = list(candidate_hosts)
        #: member -> version (datanodes have no intrinsic version)
        self.versions: dict[str, str] = {}

    def members(self) -> list[MemberStatus]:
        nn = self.fs.namenode
        out = []
        for name in self.fs.datanodes:
            dn = self.fs.datanodes[name]
            if name in nn.decommissioning:
                phase, reason = "stopping", "decommissioning"
            elif not dn.host.alive or not dn.alive:
                phase, reason = "unhealthy", "node down"
            elif name in nn.dead_datanodes:
                phase, reason = "unhealthy", "missed heartbeats"
            else:
                phase, reason = "ready", ""
            out.append(MemberStatus(
                name=name, version=self.versions.get(name, ""),
                phase=phase, host=name, reason=reason))
        return out

    def add_member(self, version: str) -> str | None:
        taken = set(self.fs.datanodes) | {self.fs.namenode_host}
        alive = {h: self.fs.cluster.host(h).alive for h in self.candidate_hosts}
        free = _free_hosts(self.candidate_hosts, taken, alive)
        if not free:
            return None
        name = free[0]
        self.fs.add_datanode(name)
        self.versions[name] = version
        return name

    def remove_member(self, name: str, *, drain: bool) -> bool:
        if name not in self.fs.datanodes:
            self.versions.pop(name, None)
            return True
        if drain:
            self.fs.start_decommission(name)
            done = self.fs.finish_decommission(name)
            if done:
                self.versions.pop(name, None)
            return done
        # hard removal (the node is already dead): drop it from the pool
        self.fs.drop_datanode(name)
        self.versions.pop(name, None)
        return True


class TranscodePoolAdapter:
    """The distributed transcoder's worker-host pool."""

    def __init__(self, portal: "VideoPortal", pool_name: str,
                 candidate_hosts: list[str]) -> None:
        self.portal = portal
        self.pool_name = pool_name
        self.candidate_hosts = list(candidate_hosts)
        self.versions: dict[str, str] = {}

    def members(self) -> list[MemberStatus]:
        out = []
        for name in self.portal.transcoder.workers:
            alive = self.portal.cluster.host(name).alive
            out.append(MemberStatus(
                name=name, version=self.versions.get(name, ""),
                phase="ready" if alive else "unhealthy", host=name,
                reason="" if alive else "host down"))
        return out

    def add_member(self, version: str) -> str | None:
        taken = set(self.portal.transcoder.workers)
        alive = {h: self.portal.cluster.host(h).alive
                 for h in self.candidate_hosts}
        free = _free_hosts(self.candidate_hosts, taken, alive)
        if not free:
            return None
        name = free[0]
        self.portal.transcoder.workers.append(name)
        self.versions[name] = version
        return name

    def remove_member(self, name: str, *, drain: bool) -> bool:
        if name in self.portal.transcoder.workers:
            self.portal.transcoder.workers.remove(name)
        self.versions.pop(name, None)
        return True                 # segment failover handles in-flight work


class WebReplicaPoolAdapter:
    """Portal web replicas behind the :class:`~repro.web.LoadBalancer`.

    Removal with *drain* is two-phase: first sweep marks the backend
    draining (no new requests; in-flight ones finish), the next sweep
    takes it out -- the admission controller's priority classes keep
    shedding order sane while capacity is reduced.
    """

    def __init__(self, portal: "VideoPortal", lb: "LoadBalancer",
                 pool_name: str, candidate_hosts: list[str]) -> None:
        self.portal = portal
        self.lb = lb
        self.pool_name = pool_name
        self.candidate_hosts = list(candidate_hosts)
        self.versions: dict[str, str] = {}

    def members(self) -> list[MemberStatus]:
        out = []
        for name, server in self.lb.backends.items():
            if name in self.lb.draining:
                phase, reason = "stopping", "draining"
            elif not server.host.alive:
                phase, reason = "unhealthy", "host down"
            else:
                phase, reason = "ready", ""
            out.append(MemberStatus(
                name=name, version=self.versions.get(name, ""),
                phase=phase, host=server.host.name, reason=reason))
        return out

    def add_member(self, version: str) -> str | None:
        taken = {s.host.name for s in self.lb.backends.values()}
        alive = {h: self.portal.cluster.host(h).alive
                 for h in self.candidate_hosts}
        free = _free_hosts(self.candidate_hosts, taken, alive)
        if not free:
            return None
        host = free[0]
        self.lb.add_backend(host, self.portal.build_replica(host))
        self.versions[host] = version
        return host

    def remove_member(self, name: str, *, drain: bool) -> bool:
        if name not in self.lb.backends:
            self.versions.pop(name, None)
            return True
        if drain and name not in self.lb.draining:
            self.lb.drain(name)
            return False            # give in-flight requests one sweep
        self.lb.remove_backend(name)
        self.versions.pop(name, None)
        return True
