"""Physical host model: CPU cores, memory, and a single-spindle disk.

A :class:`PhysicalHost` is what OpenNebula would call a *host* -- one entry
in its host pool.  Memory is accounted (not time-shared) because placement
decisions need free-memory arithmetic.  The disk (one slot: a FIFO spindle
with seek + streaming cost) and the CPU (one slot per core) are FIFO
servers built from ``Engine.call_later`` timer cells, so a disk I/O or a
CPU burst starts no kernel process.  ``Disk.read``/``write`` and
``PhysicalHost.compute`` stay generators: call sites ``yield from`` them
and wait on one completion event.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..common.calibration import Calibration
from ..common.errors import CapacityError, ConfigError
from ..sim import Engine, Event

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


class _FifoServer:
    """*slots* identical servers granting jobs FIFO, built from timer cells.

    A job costs four schedule entries and no process.  Each sits where one
    hop of a process holding a ``Resource`` slot for a ``Timeout`` would,
    so entry counts and same-instant order are those of that process:

    * the **arrival** cell ``(now, URGENT)``, where the process's
      initialise entry ran, runs *admit* (which raises
      :class:`CapacityError` for a bad job), then takes a free slot or
      joins the queue;
    * the **grant** cell ``(now, NORMAL)``, where ``Request.succeed()``
      fired, asks *service* for the job's seconds;
    * the **finish** cell, where the ``Timeout`` fired, hands the slot to
      the queue head's grant cell, runs *account*, and only then succeeds
      the completion event the caller waits on (release, then exit).

    Arrival and finish tag the happens-before sanitizer's ``slots`` field
    as writes, where ``Resource`` did.
    """

    __slots__ = ("engine", "slots", "_busy", "_queue", "_admit", "_service",
                 "_account")

    def __init__(self, engine: Engine, slots: int, admit: Callable[[Any], Any],
                 service: Callable[[Any], float],
                 account: Callable[[Any], None]) -> None:
        self.engine = engine
        self.slots = slots
        self._busy = 0
        self._queue: deque[tuple[Any, Event]] = deque()
        self._admit = admit
        self._service = service
        self._account = account

    @property
    def busy(self) -> int:
        """Slots currently serving a job."""
        san = self.engine._sanitizer
        if san is not None:
            san.access(self, "slots", "r")
        return self._busy

    def serve(self, job: Any) -> Generator:
        """Generator: queue *job*, return when its service ends."""
        done = Event(self.engine)
        self.engine.call_later(0.0, self._arrive, job, done, urgent=True)
        yield done

    def _arrive(self, job: Any, done: Event) -> None:
        try:
            job = self._admit(job)
        except CapacityError as exc:
            done.fail(exc)
            return
        san = self.engine._sanitizer
        if san is not None:
            san.access(self, "slots", "w")
        if self._busy < self.slots:
            self._busy += 1
            self.engine.call_later(0.0, self._grant, job, done)
        else:
            self._queue.append((job, done))

    def _grant(self, job: Any, done: Event) -> None:
        self.engine.call_later(self._service(job), self._finish, job, done)

    def _finish(self, job: Any, done: Event) -> None:
        san = self.engine._sanitizer
        if san is not None:
            san.access(self, "slots", "w")
        if self._queue:
            self.engine.call_later(0.0, self._grant, *self._queue.popleft())
        else:
            self._busy -= 1
        self._account(job)
        done.succeed()


class Disk:
    """A single spindle: operations queue FIFO, each pays seek + size/rate."""

    def __init__(self, engine: Engine, cal: Calibration) -> None:
        self.engine = engine
        self.cal = cal
        self._spindle = _FifoServer(engine, 1, self._admit, self._duration,
                                    self._account)
        self.bytes_read = 0
        self.bytes_written = 0
        self.slowdown = 1.0  # >1.0 under an injected degradation

    def read(self, nbytes: int) -> Generator:
        """Generator: sequential read of *nbytes* (``yield from`` it)."""
        return self._spindle.serve((nbytes, False))

    def write(self, nbytes: int) -> Generator:
        """Generator: sequential write of *nbytes* (``yield from`` it)."""
        return self._spindle.serve((nbytes, True))

    @staticmethod
    def _admit(job: tuple[int, bool]) -> tuple[int, bool]:
        if job[0] < 0:
            raise CapacityError(f"negative I/O size: {job[0]}")
        return job

    def _duration(self, job: tuple[int, bool]) -> float:
        # read at grant, so a slowdown set while queued applies
        nbytes, is_write = job
        rate = self.cal.disk_write_rate if is_write else self.cal.disk_read_rate
        return (self.cal.disk_seek_time + nbytes / rate) * self.slowdown

    def _account(self, job: tuple[int, bool]) -> None:
        nbytes, is_write = job
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes

    def set_slowdown(self, factor: float) -> None:
        """Scale future I/O durations (1.0 restores nominal speed)."""
        if factor < 1.0:
            raise ConfigError(f"disk slowdown factor must be >= 1.0, got {factor}")
        self.slowdown = factor


def _seconds(seconds: float) -> float:
    """The CPU's service time: its admission already worked it out."""
    return seconds


class PhysicalHost:
    """One node of the cluster.

    CPU work is expressed in *cycles* so virtualization overhead models can
    scale it; ``compute(cycles)`` claims one core for ``cycles / cpu_hz``
    seconds.  Memory is an explicit ledger used by the capacity manager.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        cal: Calibration,
        *,
        cores: int | None = None,
        cpu_hz: float | None = None,
        memory: int | None = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.cal = cal
        self.cores = cores if cores is not None else cal.cores_per_host
        self.cpu_hz = cpu_hz if cpu_hz is not None else cal.cpu_hz
        self.memory = memory if memory is not None else cal.host_memory
        if self.cores < 1 or self.cpu_hz <= 0 or self.memory <= 0:
            raise CapacityError(f"invalid host shape for {name}")

        self._cpu = _FifoServer(engine, self.cores, self._cpu_admit, _seconds,
                                self._cpu_account)
        self.cpu_throttle = 1.0  # >1.0 under an injected fail-slow throttle
        self.disk = Disk(engine, cal)
        self.network: "Network | None" = None  # set by Network.attach
        self._mem_used = 0
        self._busy_core_seconds = 0.0
        self.alive = True
        self._fail_listeners: list[Callable[["PhysicalHost"], None]] = []
        self._recover_listeners: list[Callable[["PhysicalHost"], None]] = []
        self._failure_watchers: list[Event] = []

    # -- failure / recovery -------------------------------------------------------

    def on_fail(self, fn: Callable[["PhysicalHost"], None]) -> None:
        """Call *fn(host)* whenever this host crashes (services cascade here)."""
        self._fail_listeners.append(fn)

    def on_recover(self, fn: Callable[["PhysicalHost"], None]) -> None:
        """Call *fn(host)* whenever this host comes back up."""
        self._recover_listeners.append(fn)

    def failure_event(self) -> Event:
        """Event that succeeds the instant this host dies.

        Already-dead hosts return an already-succeeded event, so racing
        ``any_of([work, host.failure_event()])`` is safe at any time.
        """
        ev = Event(self.engine)
        if not self.alive:
            ev.succeed(self)
        else:
            self._failure_watchers.append(ev)
        return ev

    def fail(self) -> None:
        """Crash the whole host: NIC goes dark, watchers fire, services cascade.

        Idempotent; recovery is explicit via :meth:`recover`.
        """
        if not self.alive:
            return
        self.alive = False
        if self.network is not None:
            self.network.cut(self.name)
        watchers, self._failure_watchers = self._failure_watchers, []
        for ev in watchers:
            if not ev.triggered:
                ev.succeed(self)
        for fn in list(self._fail_listeners):
            fn(self)

    def recover(self) -> None:
        """Bring the host back: restore the NIC and notify recovery listeners."""
        if self.alive:
            return
        self.alive = True
        if self.network is not None:
            self.network.restore(self.name)
        for fn in list(self._recover_listeners):
            fn(self)

    # -- memory ledger ---------------------------------------------------------

    @property
    def memory_used(self) -> int:
        return self._mem_used

    @property
    def memory_free(self) -> int:
        return self.memory - self._mem_used

    def allocate_memory(self, nbytes: int) -> None:
        if nbytes < 0:
            raise CapacityError("negative memory allocation")
        if nbytes > self.memory_free:
            raise CapacityError(
                f"{self.name}: need {nbytes} B, only {self.memory_free} B free"
            )
        self._mem_used += nbytes

    def free_memory(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self._mem_used:
            raise CapacityError(f"{self.name}: bad memory free of {nbytes}")
        self._mem_used -= nbytes

    # -- CPU ---------------------------------------------------------------------

    def set_cpu_throttle(self, factor: float) -> None:
        """Scale future compute durations (thermal throttle; 1.0 = nominal)."""
        if factor < 1.0:
            raise ConfigError(f"cpu throttle factor must be >= 1.0, got {factor}")
        self.cpu_throttle = factor

    def compute(self, cycles: float, overhead: float = 1.0) -> Generator:
        """Generator: burn *cycles* of CPU on one core, scaled by *overhead*."""
        return self._cpu.serve((cycles, overhead))

    def compute_seconds(self, seconds: float, overhead: float = 1.0) -> Generator:
        """Generator: hold one core for a fixed duration (already in seconds)."""
        return self.compute(seconds * self.cpu_hz, overhead)

    def _cpu_admit(self, job: tuple[float, float]) -> float:
        # read at arrival, so a throttle set while queued does not apply
        cycles, overhead = job
        if cycles < 0:
            raise CapacityError(f"negative cycles: {cycles}")
        return cycles * overhead * self.cpu_throttle / self.cpu_hz

    def _cpu_account(self, seconds: float) -> None:
        self._busy_core_seconds += seconds

    # -- monitoring ---------------------------------------------------------------

    def cpu_utilisation(self, window_start: float = 0.0) -> float:
        """Average fraction of total core-time spent busy since *window_start*."""
        elapsed = self.engine.now - window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_core_seconds / (elapsed * self.cores))

    def utilisation_since(self, busy_snapshot: float, t_snapshot: float) -> float:
        """Interval utilisation between a snapshot and now (for dashboards)."""
        elapsed = self.engine.now - t_snapshot
        if elapsed <= 0:
            return 0.0
        delta = self._busy_core_seconds - busy_snapshot
        return min(1.0, max(0.0, delta / (elapsed * self.cores)))

    @property
    def busy_core_seconds(self) -> float:
        return self._busy_core_seconds

    @property
    def running_tasks(self) -> int:
        return self._cpu.busy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PhysicalHost {self.name} cores={self.cores} mem={self.memory}>"
