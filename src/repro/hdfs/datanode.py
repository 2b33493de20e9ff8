"""DataNode: block storage + pipeline forwarding + heartbeats.

"Data node ... is utilized for information storage that directly sets up
data communicate to users" (Section III.B).  Each DataNode lives on one
cluster host; storing a block costs a disk write, serving one costs a
disk read, and both ends of every transfer go through the shared network
fabric.  A heartbeat process reports liveness to the NameNode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..common.errors import HdfsError, PartitionError
from ..hardware import PhysicalHost
from ..resilience import ProbeGate
from ..sim import Interrupt, Process
from .block import Block, BlockId

if TYPE_CHECKING:  # pragma: no cover
    from .namenode import NameNode


class DataNode:
    """One storage node."""

    def __init__(self, host: PhysicalHost, namenode: "NameNode") -> None:
        self.host = host
        self.namenode = namenode
        self.blocks: dict[BlockId, Block] = {}
        self.corrupted: set[BlockId] = set()
        self.alive = True
        #: set when the node leaves the pool for good (decommission /
        #: hard removal): a host reboot must not resurrect it
        self.retired = False
        self._hb_active = False
        self._hb_epoch = 0
        self._hb_stop = False
        self._hb_interval: float | None = None
        #: probe-mode heartbeats: each beat pays a disk read of this many
        #: bytes plus a network hop, so fail-slow faults *delay* beats and
        #: the phi-accrual detector can see them.  None = instant beats.
        self.probe_bytes: int | None = None
        #: Karn-gated probe RTT filter: a probe far slower than the node's
        #: own baseline counts as a missed beat (set with probe mode)
        self.probe_gate: ProbeGate | None = None
        self._scanner_proc: Process | None = None
        self._scan_stop = False

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def used_bytes(self) -> int:
        return sum(b.length for b in self.blocks.values())

    # -- block I/O -------------------------------------------------------------

    def store_block(self, block: Block, pipeline: list[str]) -> Generator:
        """Process: receive *block* (already on the wire to us), write it to
        disk, and forward down the remaining *pipeline* concurrently (HDFS
        write pipelining: downstream replication overlaps the local write)."""
        engine = self.host.engine

        def _store():
            if not self.alive:
                raise HdfsError(f"datanode {self.name} is down")
            forward = None
            if pipeline:
                nxt = pipeline[0]
                fs = self.namenode.fs
                forward = engine.process(
                    fs.datanode(nxt).receive_from(self.name, block, pipeline[1:])
                )
                # joined below -- but if this node dies mid-write we raise
                # before the join, and an orphaned failure must not crash
                # the engine (the client handles it via pipeline recovery)
                forward.defuse()
            yield from self.host.disk.write(block.length)
            if not self.alive:
                raise HdfsError(f"datanode {self.name} died mid-write")
            self.blocks[block.block_id] = block
            self.namenode.block_received(self.name, block)
            if forward is not None:
                yield forward

        return _store()

    def receive_from(self, src_host: str, block: Block, pipeline: list[str]) -> Generator:
        """Process: network transfer from *src_host*, then store + forward."""
        engine = self.host.engine
        fs = self.namenode.fs

        def _recv():
            yield fs.cluster.network.transfer(src_host, self.name, block.length)
            yield engine.process(self.store_block(block, pipeline))

        return _recv()

    def serve_block(self, block_id: BlockId, dst_host: str,
                    *, allow_corrupt: bool = False) -> Generator:
        """Process: read a block from disk and ship it to *dst_host*.

        A corrupted replica fails its checksum on read: the DataNode
        reports itself to the NameNode and the read errors out so the
        client can retry another replica (real HDFS behaviour).  With
        *allow_corrupt* the checksum failure is tolerated and the damaged
        bytes ship anyway -- the salvage path for a block whose every
        replica is corrupt.
        """
        fs = self.namenode.fs

        def _serve():
            if not self.alive:
                raise HdfsError(f"datanode {self.name} is down")
            block = self.blocks.get(block_id)
            if block is None:
                raise HdfsError(f"{self.name} has no replica of {block_id}")
            yield from self.host.disk.read(block.length)
            if block_id in self.corrupted and not allow_corrupt:
                self.namenode.report_corrupt(self.name, block_id)
                raise HdfsError(
                    f"{self.name}: checksum failure on {block_id}")
            yield fs.cluster.network.transfer(self.name, dst_host, block.length)
            return block

        return _serve()

    # -- liveness ------------------------------------------------------------------

    def enable_probe_heartbeats(self, probe_bytes: int = 4 * 1024 * 1024) -> None:
        """Make every heartbeat a real health probe instead of a free RPC.

        An instant beat proves only that the process is scheduled; a gray
        node (stalled disk, degraded NIC) would keep beating on time and
        stay invisible.  In probe mode each beat reads *probe_bytes* off
        the spindle (queueing behind real I/O) and ships a report across
        the fabric, so every fail-slow fault stretches the inter-arrival
        gaps the phi detector watches.
        """
        if probe_bytes <= 0:
            raise HdfsError(f"probe_bytes must be > 0, got {probe_bytes}")
        self.probe_bytes = probe_bytes
        if self.probe_gate is None:
            self.probe_gate = ProbeGate()

    def _report_beat(self) -> None:
        """Deliver one raw heartbeat arrival (NameNode + liveness bank).

        The liveness channel records *every* arrival, late or not: it is
        what the death decision keys off, so only true silence can kill.
        """
        self.namenode.heartbeat(self.name)
        liveness = self.namenode.fs.liveness
        if liveness is not None:
            liveness.heartbeat(self.name)

    def _probe_beat(self) -> Generator:
        """Process: one probed heartbeat -- disk read, network hop, report."""
        engine = self.host.engine
        fs = self.namenode.fs

        def _probe():
            t0 = engine.now
            yield from self.host.disk.read(self.probe_bytes or 0)
            try:
                yield fs.cluster.network.transfer(
                    self.name, fs.namenode_host, 4096)
            except PartitionError:
                return  # beat lost on the wire; the detector sees silence
            if not self.alive:
                return
            self._report_beat()
            # the suspicion channel is Karn-gated: a probe far over the
            # node's own RTT baseline is a gray signal, not a heartbeat,
            # so it is suppressed there and phi accrues -- while the raw
            # beat above keeps the node *alive*
            gate = self.probe_gate
            detectors = fs.detectors
            if detectors is not None and (
                    gate is None or gate.admit(engine.now - t0)):
                detectors.heartbeat(self.name)

        return _probe()

    def start_heartbeats(self, interval: float) -> None:
        """Begin the heartbeat loop (idempotent).

        Each beat is one ``Engine.call_later`` callback, not a generator
        process: fire-and-forget timers carry no cancel handle, so the
        loop is stopped by flag -- a stale tick (old epoch, ``_hb_stop``,
        or dead node) simply declines to reschedule itself.
        """
        if self._hb_active:
            return
        self._hb_stop = False
        self._hb_interval = interval
        self._hb_active = True
        self._hb_epoch += 1
        epoch = self._hb_epoch
        engine = self.host.engine

        def _tick() -> None:
            if epoch != self._hb_epoch:
                return  # superseded by a restart
            if self._hb_stop or not self.alive:
                self._hb_active = False
                return
            if self.probe_bytes is None:
                self.namenode.heartbeat(self.name)
            else:
                # the beat *sends* on cadence but *arrives* after the probe
                # cost -- exactly the delay the phi detector measures
                engine.process(self._probe_beat(), name=f"hb-probe-{self.name}")
            engine.call_later(interval, _tick)

        # first beat lands now at URGENT, exactly when the old generator
        # process would have started via its Initialize event
        engine.call_later(0.0, _tick, urgent=True)

    def stop_heartbeats(self) -> None:
        self._hb_stop = True
        self._hb_active = False

    # -- corruption + scanning --------------------------------------------------

    def corrupt_replica(self, block_id: BlockId) -> None:
        """Failure injection: bit-rot this replica (detected on next read/scan)."""
        if block_id not in self.blocks:
            raise HdfsError(f"{self.name} has no replica of {block_id}")
        self.corrupted.add(block_id)

    def scan_once(self) -> Generator:
        """Process: the block scanner -- read-verify every local replica,
        reporting corrupt ones to the NameNode.  Returns found corruptions."""
        def _scan():
            found = []
            for block_id in sorted(self.blocks, key=lambda b: b.id):
                block = self.blocks.get(block_id)
                if block is None or not self.alive:
                    continue
                yield from self.host.disk.read(block.length)
                if block_id in self.corrupted:
                    self.namenode.report_corrupt(self.name, block_id)
                    found.append(block_id)
            return found

        return _scan()

    def start_block_scanner(self, period: float) -> None:
        """Periodic scan loop (idempotent; stop with stop_block_scanner)."""
        if self._scanner_proc is not None and self._scanner_proc.is_alive:
            return
        self._scan_stop = False
        engine = self.host.engine

        def _loop():
            try:
                while self.alive and not self._scan_stop:
                    yield engine.timeout(period)
                    if self._scan_stop:
                        return
                    yield engine.process(self.scan_once())
            except Interrupt:
                pass

        self._scanner_proc = engine.process(_loop(), name=f"scan-{self.name}")

    def stop_block_scanner(self) -> None:
        self._scan_stop = True
        proc = self._scanner_proc
        self._scanner_proc = None
        if proc is not None and proc.is_alive and proc.started:
            proc.interrupt("stop")

    def kill(self) -> None:
        """Simulate node failure: stops heartbeats, refuses all future I/O."""
        self.alive = False
        self.stop_heartbeats()
        self.stop_block_scanner()

    def fail(self) -> None:
        """Chaos-layer alias for :meth:`kill`."""
        self.kill()

    def recover(self) -> None:
        """Node comes back with its disk intact: re-register and re-report.

        Local replicas survive a crash-reboot, so the NameNode gets a
        blockReceived for each -- they count toward replication again.
        """
        if self.alive or self.retired:
            return
        self.alive = True
        self._report_beat()
        for block in self.blocks.values():
            self.namenode.block_received(self.name, block)
        if self._hb_interval is not None:
            self.start_heartbeats(self._hb_interval)
