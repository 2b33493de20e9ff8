"""NameNode high availability: quorum journal, fencing epochs, failover.

Models HDFS-1623 (the Quorum Journal Manager): an active/standby
NameNode pair replicates every namespace mutation through an odd-sized
set of *journal nodes*.  A write is acknowledged to clients only once a
majority of journal nodes accepted it, so any later writer that talks to
a majority is guaranteed to see it.  Split-brain is prevented by
*fencing epochs*: becoming the writer means promising a strictly higher
epoch to a majority, after which every append from the deposed writer is
rejected (:class:`~repro.common.errors.FencedError`).

Key protocol properties (all load-bearing for the consistency checker in
:mod:`repro.analysis.history`):

* **No orphan writes without a fence.**  An append first checks that a
  majority of journal nodes is reachable and only then transmits; the
  simulation executes the whole append synchronously, so a quorum-lost
  append writes *nothing* and an acknowledged append is durably on a
  majority.  Partial writes can only happen when a newer epoch already
  fenced us -- and then the new writer's *epoch marker* (a committed
  ``noop`` entry written during activation) dominates them forever.
* **Epoch-aware recovery.**  A new writer adopts the reachable journal
  node whose log has the highest ``(last entry epoch, last txid)``.
  Because every activation commits an epoch marker to a majority, stale
  orphans from a fenced writer can never win this comparison, so exactly
  the committed prefix (plus entries the new epoch itself committed)
  survives -- acknowledged writes are never lost, unacknowledged ones
  never half-survive.
* **Conservative tailing.**  The standby applies only entries below the
  majority-th largest journal-node txid (provably committed) and serves
  reads only once it has applied everything any reachable journal node
  holds, so a read served by the standby can never miss an acknowledged
  write.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..common.errors import ConfigError, FencedError, HdfsError, QuorumLostError, StandbyError
from ..hardware import Cluster
from ..sim import Interrupt
from .block import Block, BlockId
from .journal import EditLog, EditOp
from .namenode import INode, NameNode
from .placement import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Process
    from .datanode import DataNode
    from .fs import Hdfs


@dataclass(frozen=True)
class JournalEntry:
    """One replicated edit: a txid-stamped op plus the epoch that wrote it."""

    txid: int
    epoch: int
    op: EditOp


class JournalNode:
    """One member of the journal quorum (a tiny write-ahead log server).

    The log is always a contiguous prefix starting at txid 1: writers
    send catch-up batches covering everything a node is missing, and a
    batch first truncates any same-or-higher txids (stale overhang from
    a fenced writer) before appending.
    """

    def __init__(self, host_name: str) -> None:
        self.host_name = host_name
        self.promised_epoch = 0
        self.entries: list[JournalEntry] = []
        self.rejected_appends = 0

    @property
    def last_txid(self) -> int:
        return self.entries[-1].txid if self.entries else 0

    @property
    def last_epoch(self) -> int:
        return self.entries[-1].epoch if self.entries else 0

    def promise(self, epoch: int) -> bool:
        """Paxos prepare: promise to reject writers below *epoch*."""
        if epoch <= self.promised_epoch:
            return False
        self.promised_epoch = epoch
        return True

    def write_batch(self, epoch: int, batch: list[JournalEntry]) -> bool:
        """Accept a contiguous batch from the writer at *epoch*.

        Rejects (and counts) writes from a fenced epoch.  Entries at or
        above the batch's first txid are truncated first, so a fenced
        writer's orphaned overhang is erased the moment the new writer
        catches this node up.
        """
        if epoch < self.promised_epoch:
            self.rejected_appends += 1
            return False
        if not batch:
            return True
        self.promised_epoch = epoch
        first = batch[0].txid
        self.entries = [e for e in self.entries if e.txid < first]
        if self.last_txid + 1 != first:
            self.rejected_appends += 1
            return False
        self.entries.extend(batch)
        return True


class JournalQuorum:
    """The journal-node ensemble plus majority bookkeeping."""

    def __init__(self, cluster: Cluster, hosts: list[str]) -> None:
        if len(hosts) < 3 or len(hosts) % 2 == 0:
            raise ConfigError("journal quorum needs an odd number of hosts >= 3")
        if len(set(hosts)) != len(hosts):
            raise ConfigError("duplicate journal hosts")
        for h in hosts:
            if h not in cluster.host_names:
                raise ConfigError(f"journal host {h} not in cluster")
        self.cluster = cluster
        self.nodes = [JournalNode(h) for h in hosts]
        self.majority = len(hosts) // 2 + 1

    @property
    def hosts(self) -> list[str]:
        return [jn.host_name for jn in self.nodes]

    def reachable_from(self, src: str) -> list[JournalNode]:
        net = self.cluster.network
        return [jn for jn in self.nodes
                if self.cluster.host(jn.host_name).alive
                and net.reachable(src, jn.host_name)]

    def committed_txid(self, src: str) -> int | None:
        """Highest txid provably committed, as seen from *src*.

        The majority-th largest ``last_txid`` among reachable nodes: at
        least a majority holds everything at or below it.  ``None`` when
        fewer than a majority is reachable (nothing can be proven).
        Conservative -- may lag the true committed point when a node
        holding newer committed entries is unreachable.
        """
        reachable = self.reachable_from(src)
        if len(reachable) < self.majority:
            return None
        txids = sorted((jn.last_txid for jn in reachable), reverse=True)
        return txids[self.majority - 1]

    def visible_txid(self, src: str) -> int:
        """Highest txid present on *any* reachable journal node."""
        reachable = self.reachable_from(src)
        return max((jn.last_txid for jn in reachable), default=0)

    def best_log(self, src: str) -> JournalNode | None:
        """The reachable node with the highest ``(last epoch, last txid)``.

        Epoch dominates length: the newest writer lineage committed an
        epoch marker to a majority, so a fenced writer's longer-but-stale
        orphan log can never be chosen over it.
        """
        best: JournalNode | None = None
        for jn in self.reachable_from(src):
            if best is None or (jn.last_epoch, jn.last_txid) > (best.last_epoch, best.last_txid):
                best = jn
        return best

    def committed_entries(self, src: str, after_txid: int) -> list[JournalEntry]:
        """Committed entries with ``txid > after_txid``, from the best log."""
        committed = self.committed_txid(src)
        if committed is None or committed <= after_txid:
            return []
        best = self.best_log(src)
        if best is None or best.last_txid < committed:
            return []
        return [e for e in best.entries if after_txid < e.txid <= committed]


class QuorumWriter:
    """The single-writer handle one NameNode holds on the quorum.

    :meth:`activate` runs the two-phase recovery (promise a fresh epoch
    to a majority, adopt the best log, commit an epoch marker);
    :meth:`append` replicates one op with majority acknowledgement.
    Both run synchronously inside one simulation event, which is what
    makes "acked implies committed" exact rather than probabilistic.
    """

    def __init__(self, quorum: JournalQuorum, host: str) -> None:
        self.quorum = quorum
        self.host = host
        self.epoch = 0
        self.entries: list[JournalEntry] = []
        self.fenced = False

    @property
    def last_txid(self) -> int:
        return self.entries[-1].txid if self.entries else 0

    def activate(self) -> int:
        """Become the writer: fence predecessors, adopt, commit a marker."""
        reachable = self.quorum.reachable_from(self.host)
        if len(reachable) < self.quorum.majority:
            raise QuorumLostError(
                f"{self.host}: only {len(reachable)}/{len(self.quorum.nodes)} "
                "journal nodes reachable; cannot activate")
        proposal = max(jn.promised_epoch for jn in reachable) + 1
        acks = sum(1 for jn in reachable if jn.promise(proposal))
        if acks < self.quorum.majority:
            raise QuorumLostError(
                f"{self.host}: epoch {proposal} promised by {acks} "
                f"< majority {self.quorum.majority}")
        best = self.quorum.best_log(self.host)
        self.entries = list(best.entries) if best is not None else []
        self.epoch = proposal
        # the epoch marker: a committed no-op that makes this lineage
        # dominate any orphan a fenced predecessor may yet scatter
        self.append(EditOp("noop", "/"))
        return proposal

    def append(self, op: EditOp) -> JournalEntry:
        """Replicate *op*; returns the stamped entry once a majority acked.

        Checks reachability *before* transmitting: a quorum-lost append
        therefore writes nothing anywhere (no orphans without a fence).
        """
        if self.fenced:
            raise FencedError(f"writer on {self.host} (epoch {self.epoch}) is fenced")
        reachable = self.quorum.reachable_from(self.host)
        if len(reachable) < self.quorum.majority:
            raise QuorumLostError(
                f"{self.host}: only {len(reachable)}/{len(self.quorum.nodes)} "
                "journal nodes reachable for append")
        txid = self.last_txid + 1
        entry = JournalEntry(txid, self.epoch, replace(op, txid=txid))
        acks = 0
        rejected = False
        for jn in reachable:
            # catch-up batch: everything past the longest prefix the node
            # shares with us.  Comparing (txid, epoch) -- not just length
            # -- means a stale divergent suffix (an orphan from a fenced
            # writer) is detected and truncated by the batch, even when
            # the node's log is no shorter than the gap suggests.
            common = 0
            for ours, theirs in zip(self.entries, jn.entries):
                if (ours.txid, ours.epoch) != (theirs.txid, theirs.epoch):
                    break
                common += 1
            missing = self.entries[common:]
            if jn.write_batch(self.epoch, missing + [entry]):
                acks += 1
            elif jn.promised_epoch > self.epoch:
                rejected = True
        if acks >= self.quorum.majority:
            self.entries.append(entry)
            return entry
        if rejected:
            self.fenced = True
            raise FencedError(
                f"writer on {self.host} (epoch {self.epoch}) fenced by a newer epoch")
        raise QuorumLostError(
            f"{self.host}: append acked by {acks} < majority {self.quorum.majority}")


class DualNameNodeView:
    """What a DataNode sees in HA mode: heartbeats and block reports go
    to both NameNodes (each as far as the network allows), so the standby
    keeps a warm replica map and can serve immediately after promotion."""

    def __init__(self, pair: "HaNameNodePair") -> None:
        self.pair = pair

    @property
    def fs(self) -> "Hdfs":
        return self.pair.fs

    def _targets(self, src: str) -> list[NameNode]:
        cluster = self.pair.fs.cluster
        net = cluster.network
        return [nn for host, nn in self.pair.nodes()
                if cluster.host(host).alive and net.reachable(src, host)]

    def heartbeat(self, name: str) -> None:
        for nn in self._targets(name):
            nn.heartbeat(name)

    def block_received(self, datanode: str, block: Block) -> None:
        for nn in self._targets(datanode):
            nn.block_received(datanode, block)

    def report_corrupt(self, datanode: str, block_id: BlockId) -> None:
        for nn in self._targets(datanode):
            nn.report_corrupt(datanode, block_id)


def _apply(nn: NameNode, op: EditOp, now: float) -> None:
    """Apply one journalled op to a (standby) NameNode's metadata.

    Mirrors :func:`repro.hdfs.journal.replay_into_image` but works on a
    live NameNode so block reports already received are preserved.
    """
    if op.op == "noop":
        return
    if op.op == "create":
        nn.namespace[op.path] = INode(
            path=op.path, replication=op.replication, mtime=now)
    elif op.op == "add_block":
        inode = nn.namespace[op.path]
        bid = BlockId(op.block_id)
        inode.blocks.append(Block(bid, op.length, None))
        nn.block_map.setdefault(bid, set())
        nn.block_owner[bid] = op.path
        nn._next_block_id = max(nn._next_block_id, op.block_id + 1)
    elif op.op == "complete":
        inode = nn.namespace[op.path]
        inode.complete = True
        inode.mtime = now
    elif op.op == "delete":
        inode = nn.namespace.pop(op.path, None)
        if inode is not None:
            for block in inode.blocks:
                nn.block_map.pop(block.block_id, None)
                nn.block_owner.pop(block.block_id, None)
                nn.corrupt_replicas.pop(block.block_id, None)
    else:  # pragma: no cover - defensive
        raise HdfsError(f"unknown edit op {op.op!r}")


class HaNameNodePair:
    """Active/standby NameNodes replicating through a journal quorum.

    Built by ``repro.build_video_cloud(..., ha=True)`` (or construct
    directly); once attached, ``fs.ha`` is set, every DataNode dual-
    reports to both NameNodes, and all namespace mutations on the active
    are acknowledged only after a majority of journal nodes accepted
    them.  :meth:`promote` is the fenced failover used by
    :class:`repro.reconcile.FailoverController`.
    """

    def __init__(self, fs: "Hdfs", *, standby_host: str,
                 journal_hosts: list[str], tail_period: float = 1.0) -> None:
        cluster = fs.cluster
        if fs.ha is not None:
            raise ConfigError("HA is already enabled on this filesystem")
        if getattr(fs.namenode, "journal", None) is not None:
            raise ConfigError("detach the local journal before enabling HA")
        if standby_host not in cluster.host_names:
            raise ConfigError(f"standby host {standby_host} not in cluster")
        if standby_host == fs.namenode_host:
            raise ConfigError("standby must run on a different host than the active")
        if tail_period <= 0:
            raise ConfigError("tail_period must be > 0")
        self.fs = fs
        self.quorum = JournalQuorum(cluster, journal_hosts)
        self.tail_period = tail_period
        self.active = fs.namenode
        self.active_host = fs.namenode_host
        self.standby = NameNode(
            fs, PlacementPolicy(cluster.rng.child("hdfs-ha-standby")))
        self.standby_host = standby_host
        for name, dn in sorted(fs.datanodes.items()):
            self.standby.register_datanode(name)
            dn.namenode = DualNameNodeView(self)
        # bootstrap: files created before HA was enabled exist only in the
        # active's memory (never journalled) -- seed the standby as if it
        # had loaded the same fsimage
        for path, inode in sorted(self.active.namespace.items()):
            self.standby.namespace[path] = INode(
                path=path, replication=inode.replication,
                blocks=list(inode.blocks), complete=inode.complete,
                mtime=inode.mtime)
            for block in inode.blocks:
                self.standby.block_map.setdefault(block.block_id, set()).update(
                    self.active.block_map.get(block.block_id, set()))
                self.standby.block_owner[block.block_id] = path
        self.standby._next_block_id = self.active._next_block_id
        self.failovers = 0
        self._applied: dict[str, int] = {self.active_host: 0, standby_host: 0}
        self._local_logs: dict[str, EditLog] = {
            self.active_host: EditLog(), standby_host: EditLog()}
        self._raw: dict[str, tuple] = {}
        for host, nn in ((self.active_host, self.active),
                         (standby_host, self.standby)):
            self._raw[host] = (nn.create_file, nn.add_block,
                               nn.complete_file, nn.delete)
            nn.journal = self._local_logs[host]  # type: ignore[attr-defined]
        metrics = cluster.metrics
        self._m_failovers = metrics.counter(
            "hdfs_ha_failovers_total", "fenced active->standby promotions")
        self._m_fenced = metrics.counter(
            "hdfs_ha_fenced_writes_total",
            "journal appends rejected because the writer's epoch was superseded")
        self._m_qlost = metrics.counter(
            "hdfs_ha_quorum_lost_writes_total",
            "journal appends refused for lack of a reachable majority")
        self._m_tailed = metrics.counter(
            "hdfs_ha_tailed_ops_total", "edits the standby applied by tailing")
        self._m_epoch = metrics.gauge(
            "hdfs_ha_epoch", "current fencing epoch of the active writer")
        self._writer = QuorumWriter(self.quorum, self.active_host)
        self._writer.activate()
        self._m_epoch.set(self._writer.epoch)
        self._install_writer(self.active, self.active_host, self._writer)
        self._install_standby_guard(self.standby, standby_host)
        self._tail_proc: "Process | None" = None
        self._tail_stop = False
        fs.ha = self

    # -- introspection -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._writer.epoch

    def nodes(self) -> list[tuple[str, NameNode]]:
        return [(self.active_host, self.active), (self.standby_host, self.standby)]

    def active_serving(self) -> bool:
        """Whether the active can currently commit writes."""
        return (self.fs.cluster.host(self.active_host).alive
                and not self._writer.fenced
                and self.active_quorum_degraded() is None)

    def active_quorum_degraded(self) -> str | None:
        """Why the active cannot commit, or ``None`` when it can.

        This is the failover controller's health probe: a dead active
        host or an active cut off from a journal majority both mean
        client writes are failing and a promotion would help.
        """
        cluster = self.fs.cluster
        if not cluster.host(self.active_host).alive:
            return "active host down"
        reachable = len(self.quorum.reachable_from(self.active_host))
        if reachable < self.quorum.majority:
            return (f"active reaches {reachable}/{len(self.quorum.nodes)} "
                    "journal nodes")
        return None

    def caught_up(self) -> bool:
        """Whether the standby may serve reads without risking staleness.

        Requires the standby to have applied every txid *any* reachable
        journal node holds (not just the provably committed point): an
        acknowledged write is on a majority, so whenever the standby can
        see a majority at all, at least one reachable node holds it.
        """
        committed = self.quorum.committed_txid(self.standby_host)
        if committed is None:
            return False
        return self._applied[self.standby_host] >= self.quorum.visible_txid(
            self.standby_host)

    def read_namenode(self, client_host: str | None = None) -> NameNode:
        """The NameNode *client_host* should read from right now.

        Prefers the active; falls back to a caught-up standby (HDFS
        observer-node reads); raises :class:`StandbyError` when neither
        can serve.
        """
        src = client_host or self.active_host
        cluster = self.fs.cluster
        net = cluster.network
        if cluster.host(self.active_host).alive and net.reachable(src, self.active_host):
            return self.active
        if (cluster.host(self.standby_host).alive
                and net.reachable(src, self.standby_host)
                and self.caught_up()):
            return self.standby
        raise StandbyError(f"no namenode reachable from {src}")

    # -- journalled mutations on the active ---------------------------------------

    def _check_host(self, host: str) -> None:
        if not self.fs.cluster.host(host).alive:
            raise StandbyError(f"namenode host {host} is down")

    def _journal(self, writer: QuorumWriter, nn: NameNode, host: str,
                 op: EditOp) -> JournalEntry:
        try:
            entry = writer.append(op)
        except FencedError:
            # a deposed active discovering a newer epoch demotes itself
            # (real NameNodes abort on fencing); later calls fail fast
            self._m_fenced.inc()
            self._install_standby_guard(nn, host)
            raise
        except QuorumLostError:
            self._m_qlost.inc()
            raise
        self._local_logs[host].append(entry.op)
        self._applied[host] = entry.txid
        return entry

    def _install_writer(self, nn: NameNode, host: str, writer: QuorumWriter) -> None:
        """Wrap the four namespace mutators so each commits to the quorum.

        create/add_block/complete apply locally first (placement needs
        live state) and undo on journal failure; delete journals first.
        Either way a client ack implies a majority-committed entry.
        """
        raw_create, raw_add_block, raw_complete, raw_delete = self._raw[host]
        self._writer = writer

        def create_file(path, replication):
            self._check_host(host)
            inode = raw_create(path, replication)
            try:
                self._journal(writer, nn, host,
                              EditOp("create", path, replication=replication))
            except HdfsError:
                nn.namespace.pop(path, None)
                raise
            return inode

        def add_block(path, block, writer_host):
            self._check_host(host)
            targets = raw_add_block(path, block, writer_host)
            try:
                self._journal(writer, nn, host, EditOp(
                    "add_block", path, block_id=block.block_id.id,
                    length=block.length))
            except HdfsError:
                inode = nn.namespace[path]
                if inode.blocks and inode.blocks[-1] is block:
                    inode.blocks.pop()
                nn.block_map.pop(block.block_id, None)
                nn.block_owner.pop(block.block_id, None)
                raise
            return targets

        def complete_file(path):
            self._check_host(host)
            inode = nn._inode(path)
            prev = (inode.complete, inode.mtime)
            raw_complete(path)
            try:
                self._journal(writer, nn, host, EditOp("complete", path))
            except HdfsError:
                inode.complete, inode.mtime = prev
                raise

        def delete(path):
            self._check_host(host)
            nn._inode(path)  # surface FileNotFound before journalling
            self._journal(writer, nn, host, EditOp("delete", path))
            raw_delete(path)

        nn.create_file = create_file            # type: ignore[method-assign]
        nn.add_block = add_block                # type: ignore[method-assign]
        nn.complete_file = complete_file        # type: ignore[method-assign]
        nn.delete = delete                      # type: ignore[method-assign]

    def _install_standby_guard(self, nn: NameNode, host: str) -> None:
        """A standby refuses every direct mutation (tailing bypasses these)."""

        def refuse(*_args, **_kwargs):
            raise StandbyError(f"namenode on {host} is standby")

        nn.create_file = refuse                 # type: ignore[method-assign]
        nn.add_block = refuse                   # type: ignore[method-assign]
        nn.complete_file = refuse               # type: ignore[method-assign]
        nn.delete = refuse                      # type: ignore[method-assign]

    # -- standby tailing ----------------------------------------------------------

    def tail_once(self) -> int:
        """Apply newly committed journal entries to the standby; returns count."""
        host = self.standby_host
        if not self.fs.cluster.host(host).alive:
            return 0
        entries = self.quorum.committed_entries(host, self._applied[host])
        for entry in entries:
            _apply(self.standby, entry.op, self.fs.engine.now)
            self._local_logs[host].append(entry.op)
            self._applied[host] = entry.txid
        if entries:
            self._m_tailed.inc(len(entries))
        return len(entries)

    def start(self) -> None:
        """Start the standby tailer loop (idempotent)."""
        if self._tail_proc is not None and self._tail_proc.is_alive:
            return
        self._tail_stop = False
        engine = self.fs.engine

        def _loop():
            try:
                while not self._tail_stop:
                    yield engine.timeout(self.tail_period)
                    if self._tail_stop:
                        return
                    self.tail_once()
            except Interrupt:
                pass

        self._tail_proc = engine.process(_loop(), name="hdfs-ha-tailer")

    def stop(self) -> None:
        """Stop the tailer and both NameNodes' monitors."""
        self._tail_stop = True
        proc = self._tail_proc
        self._tail_proc = None
        if proc is not None and proc.is_alive and proc.started:
            proc.interrupt("stop")
        self.active.stop_monitor()
        self.standby.stop_monitor()

    # -- failover ------------------------------------------------------------------

    def promote(self) -> int:
        """Fence the old active and promote the standby; returns the new epoch.

        Raises :class:`QuorumLostError` when the standby cannot reach a
        journal majority (promotion without a fence would risk split-
        brain, so it is refused) and :class:`StandbyError` when the
        standby host itself is down.
        """
        fs = self.fs
        cluster = fs.cluster
        if not cluster.host(self.standby_host).alive:
            raise StandbyError(f"standby {self.standby_host} is down; cannot promote")
        writer = QuorumWriter(self.quorum, self.standby_host)
        epoch = writer.activate()  # the fence: deposed writer is now rejected
        host, nn = self.standby_host, self.standby
        applied = self._applied[host]
        for entry in writer.entries:
            if entry.txid <= applied:
                continue
            _apply(nn, entry.op, fs.engine.now)
            self._local_logs[host].append(entry.op)
            self._applied[host] = entry.txid
        old_nn, old_host = self.active, self.active_host
        if (not cluster.host(old_host).alive
                or cluster.network.reachable(host, old_host)):
            # graceful demotion: the deposed active can be told it lost
            # the role (or is dead and will restart as standby).  An
            # alive-but-partitioned old active *cannot* be told -- there
            # the quorum's epoch fence is the only thing stopping its
            # writes, and it demotes itself on discovering the fence.
            self._install_standby_guard(old_nn, old_host)
        old_nn.stop_monitor()
        self.active, self.active_host = nn, host
        self.standby, self.standby_host = old_nn, old_host
        self._install_writer(nn, host, writer)
        fs.namenode = nn
        fs.namenode_host = host
        if fs._started:
            cal = cluster.cal.hadoop
            nn.start_replication_monitor(
                period=cal.heartbeat_interval, dn_timeout=cal.datanode_timeout)
        self.failovers += 1
        self._m_failovers.inc()
        self._m_epoch.set(epoch)
        cluster.log.emit(
            "hdfs.ha", "failover",
            f"promoted {host} to active at epoch {epoch} "
            f"(deposed {old_host})",
            new_active=host, old_active=old_host, epoch=epoch)
        return epoch

    # -- pool membership hooks (called by Hdfs) ------------------------------------

    def on_datanode_enrolled(self, name: str, dn: "DataNode") -> None:
        self.standby.register_datanode(name)
        dn.namenode = DualNameNodeView(self)

    def on_datanode_removed(self, name: str) -> None:
        self.standby.finish_decommission(name)
