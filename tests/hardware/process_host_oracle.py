"""Reference servers: the process-per-operation disk and CPU the timer cells replaced.

`ProcessDisk` and `ProcessHost` serve disk I/O and CPU bursts the way the
host did before its FIFO servers were ``call_later`` cells: each operation
is a kernel process that claims a `Resource` slot and sleeps a `Timeout`.
The generator bodies (`_io`, `_compute`) are the old ones verbatim.
`read`, `write` and `compute` start that process and wait for it -- what
every call site did -- so both versions are driven with ``yield from``.
Kept only as the oracle of the differential test in
``test_host_cells.py``: both must complete every operation at the same
instant, in the same order, with the same outcome.
"""

from __future__ import annotations

from repro.common.errors import CapacityError
from repro.hardware.host import Disk, PhysicalHost
from repro.sim import Resource


class ProcessDisk(Disk):
    """`Disk` with one kernel process, Resource claim and Timeout per I/O."""

    def __init__(self, engine, cal):
        super().__init__(engine, cal)
        self._spindle = Resource(engine, capacity=1)

    def read(self, nbytes):
        return (yield self.engine.process(
            self._io(nbytes, self.cal.disk_read_rate, is_write=False)))

    def write(self, nbytes):
        return (yield self.engine.process(
            self._io(nbytes, self.cal.disk_write_rate, is_write=True)))

    def _io(self, nbytes, rate, is_write):
        if nbytes < 0:
            raise CapacityError(f"negative I/O size: {nbytes}")
        with self._spindle.request() as req:
            yield req
            duration = (self.cal.disk_seek_time + nbytes / rate) * self.slowdown
            yield self.engine.timeout(duration)
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes


class ProcessHost(PhysicalHost):
    """`PhysicalHost` whose CPU is a `Resource` of ``cores`` slots."""

    def __init__(self, engine, name, cal, **shape):
        super().__init__(engine, name, cal, **shape)
        self.cpu = Resource(engine, capacity=self.cores)
        self.disk = ProcessDisk(engine, cal)

    def compute(self, cycles, overhead=1.0):
        return (yield self.engine.process(self._compute(cycles, overhead)))

    def _compute(self, cycles, overhead=1.0):
        if cycles < 0:
            raise CapacityError(f"negative cycles: {cycles}")
        seconds = cycles * overhead * self.cpu_throttle / self.cpu_hz
        with self.cpu.request() as req:
            yield req
            yield self.engine.timeout(seconds)
            self._busy_core_seconds += seconds

    @property
    def running_tasks(self):
        return self.cpu.count
