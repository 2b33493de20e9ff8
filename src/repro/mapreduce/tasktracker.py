"""TaskTracker: executes map and reduce attempts on one host.

"Dependent work directly processes information on slave nodes from
calculation migration to finish storage" (Section III.B): a map attempt
reads its split from the local disk when a replica is present (calculation
moved to the data) and over the network otherwise; the actual user
function then runs on the real records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Generator

from ..common.calibration import Calibration
from ..common.errors import MapReduceError
from ..common.rng import RngStream
from ..hardware import PhysicalHost
from ..hdfs import Hdfs
from .faults import NO_FAULTS, FaultModel, TaskAttemptFailed
from .job import Counters, MapReduceJob, partition_for, record_size
from .split import InputSplit

if TYPE_CHECKING:  # pragma: no cover
    from .jobtracker import MapOutput


class TaskTracker:
    """One per worker host; owns that host's map/reduce slots."""

    def __init__(
        self,
        host: PhysicalHost,
        fs: Hdfs,
        *,
        map_slots: int = 2,
        reduce_slots: int = 2,
        slowdown: float = 1.0,
    ) -> None:
        self.host = host
        self.fs = fs
        self.cal: Calibration = host.cal
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        #: straggler factor: > 1.0 makes every attempt on this node slower
        #: (a failing disk, a noisy neighbour) -- what speculative
        #: execution exists to mask
        self.slowdown = slowdown

    @property
    def name(self) -> str:
        return self.host.name

    def _task_metrics(self):
        metrics = self.fs.cluster.metrics
        return (
            metrics.histogram(
                "mapreduce_task_seconds",
                "task attempt wall time, launch to spill",
                labels=("kind",)),
            metrics.counter(
                "mapreduce_task_failures_total",
                "attempts killed by the fault model", labels=("kind",)),
        )

    # -- map side --------------------------------------------------------------

    def run_map(
        self,
        job: MapReduceJob,
        split: InputSplit,
        counters: Counters,
        *,
        fault: FaultModel = NO_FAULTS,
        fault_rng: RngStream | None = None,
    ) -> Generator:
        """Process: one map attempt.  Returns a MapOutput.

        Raises :class:`TaskAttemptFailed` when the fault model fires -- the
        attempt has already consumed (part of) its resources by then, as a
        real crashed JVM would have.
        """
        engine = self.host.engine
        had = self.cal.hadoop
        m_seconds, m_failures = self._task_metrics()

        def _attempt():
            from .jobtracker import MapOutput  # local import to avoid cycle

            t0 = engine.now
            yield engine.timeout(had.task_launch_overhead * self.slowdown)
            local = self.name in split.hosts
            if local:
                counters.data_local_maps += 1
                yield from self.host.disk.read(split.length)
            else:
                src = split.hosts[0] if split.hosts else self.fs.namenode_host
                yield from self.fs.cluster.host(src).disk.read(split.length)
                yield self.fs.cluster.network.transfer(src, self.name, split.length)
            # charge CPU for scanning the input + running user code
            cpu_per_byte = (
                job.map_cpu_per_byte
                if job.map_cpu_per_byte is not None
                else had.map_cpu_per_byte
            )
            if fault_rng is not None and fault.attempt_fails(fault_rng, "map"):
                # die halfway through the scan
                yield from self.host.compute_seconds(
                    cpu_per_byte * split.length * self.slowdown / 2)
                m_failures.labels(kind="map").inc()
                raise TaskAttemptFailed(
                    f"map attempt for split {split.split_id} died on {self.name}")
            yield from self.host.compute_seconds(
                cpu_per_byte * split.length * self.slowdown)
            counters.map_tasks += 1
            counters.map_input_bytes += split.length
            counters.map_input_records += len(split.records)

            # real computation (instantaneous in wall-clock, already charged)
            partition = job.partitioner or partition_for
            partitions: dict[int, list[tuple[Any, Any]]] = defaultdict(list)
            out_records = 0
            for offset, line in split.records:
                for k, v in job.mapper(offset, line):
                    p = partition(k, job.num_reduces)
                    if not 0 <= p < job.num_reduces:
                        raise MapReduceError(
                            f"partitioner returned {p} outside "
                            f"[0, {job.num_reduces})")
                    partitions[p].append((k, v))
                    out_records += 1
            counters.map_output_records += out_records

            if job.combiner is not None:
                for r, pairs in list(partitions.items()):
                    grouped: dict[Any, list[Any]] = defaultdict(list)
                    for k, v in pairs:
                        grouped[k].append(v)
                    combined: list[tuple[Any, Any]] = []
                    for k in grouped:
                        combined.extend(job.combiner(k, grouped[k]))
                    partitions[r] = combined
                    counters.combine_output_records += len(combined)

            sizes = {
                r: sum(record_size(k, v) for k, v in pairs) if pairs
                # synthetic splits still shuffle bytes proportional to input
                else 0
                for r, pairs in partitions.items()
            }
            if split.synthetic:
                # cost-only job: shuffle volume modelled as input/num_reduces
                sizes = {
                    r: split.length // job.num_reduces for r in range(job.num_reduces)
                }
            # spill to local disk (map output materialisation)
            spill = sum(sizes.values())
            if spill:
                yield from self.host.disk.write(spill)
            m_seconds.labels(kind="map").observe(engine.now - t0)
            return MapOutput(
                host=self.name, partitions=dict(partitions), sizes=sizes
            )

        return self.fs.cluster.tracer.trace(
            "mapreduce.map", _attempt(), source="mapreduce",
            split=split.split_id, host=self.name)

    # -- reduce side -------------------------------------------------------------

    def run_reduce(
        self,
        job: MapReduceJob,
        reduce_index: int,
        map_outputs: "list[MapOutput]",
        counters: Counters,
        *,
        fault: FaultModel = NO_FAULTS,
        fault_rng: RngStream | None = None,
    ) -> Generator:
        """Process: one reduce attempt.  Returns (part_path|None, output dict)."""
        engine = self.host.engine
        had = self.cal.hadoop
        fs = self.fs
        m_seconds, m_failures = self._task_metrics()

        def _attempt():
            t0 = engine.now
            yield engine.timeout(had.task_launch_overhead * self.slowdown)
            # shuffle: fetch this reducer's partition from every map host,
            # concurrently (the copier threads of real Hadoop)
            fetches = []
            total_bytes = 0
            for mo in map_outputs:
                nbytes = mo.sizes.get(reduce_index, 0)
                if nbytes <= 0:
                    continue
                total_bytes += nbytes
                fetches.append(
                    fs.cluster.network.transfer(mo.host, self.name, nbytes)
                )
            if fetches:
                yield engine.all_of(fetches)
            counters.shuffle_bytes += total_bytes

            if fault_rng is not None and fault.attempt_fails(fault_rng, "reduce"):
                m_failures.labels(kind="reduce").inc()
                raise TaskAttemptFailed(
                    f"reduce {reduce_index} attempt died on {self.name}")
            # merge-sort cost + reduce scan cost
            cpu = (had.sort_cpu_per_byte + had.reduce_cpu_per_byte) * total_bytes
            cpu *= self.slowdown
            if cpu:
                yield from self.host.compute_seconds(cpu)

            grouped: dict[Any, list[Any]] = defaultdict(list)
            for mo in map_outputs:
                for k, v in mo.partitions.get(reduce_index, []):
                    grouped[k].append(v)
            counters.reduce_input_groups += len(grouped)

            output: dict[Any, Any] = {}
            lines: list[str] = []
            for k in sorted(grouped, key=repr):
                for rk, rv in job.reducer(k, grouped[k]):
                    output[rk] = rv
                    lines.append(f"{rk}\t{rv}")
            counters.reduce_output_records += len(output)
            counters.reduce_tasks += 1

            part_path = None
            if job.output_path is not None:
                part_path = f"{job.output_path}/part-r-{reduce_index:05d}"
                data = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
                client = fs.client(self.name)
                yield engine.process(
                    client.write_file(
                        part_path, data, replication=job.output_replication
                    )
                )
            m_seconds.labels(kind="reduce").observe(engine.now - t0)
            return part_path, output

        return self.fs.cluster.tracer.trace(
            "mapreduce.reduce", _attempt(), source="mapreduce",
            reduce_index=reduce_index, host=self.name)
