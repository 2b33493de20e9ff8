"""Flow-level network model with max-min fair bandwidth sharing.

Hosts hang off a non-blocking switch; each host contributes an uplink and a
downlink of ``nic_rate`` bytes/s.  A transfer is a *flow* crossing two links
(source uplink, destination downlink).  Whenever the flow set changes the
model recomputes max-min fair rates by progressive filling and reschedules
the next completion -- the standard fluid approximation used by cluster
simulators, which preserves exactly the effects the paper's claims depend
on: N parallel transfers into one node share its downlink, while transfers
to distinct nodes run at full rate.

Flows are kept in insertion order, so flows that finish (or are failed) at
the same instant are handled in the order they started.

The model starts no kernel process: the completion timer and every
delivery (a finished flow's completion after propagation latency, a
loopback copy, a drop, a zero-byte transfer) are ``call_later`` timer
cells.  Each rate change schedules a new timer cell; the one it
supersedes still fires, but as a no-op that finds its token stale.

Loopback transfers (src == dst) bypass the NIC at memory-copy speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable

from ..common.calibration import Calibration
from ..common.errors import PartitionError, SimulationError
from ..sim import Engine, Event
from .host import PhysicalHost

LOOPBACK_RATE = 5_000_000_000.0  # bytes/s, memcpy-ish


@dataclass(eq=False, slots=True)
class _Link:
    order: int  # attach position: the solver's tie-break
    capacity: float
    flows: dict = field(default_factory=dict)  # Flow -> None, in start order
    # scratch of one _max_min_rates pass
    residual: float = 0.0
    unfrozen: int = 0


_attach_order = attrgetter("order")


class Flow:
    """One in-flight transfer; ``links`` are the two ``_Link`` s it crosses."""

    __slots__ = ("src", "dst", "size", "remaining", "rate", "done", "links", "started")

    def __init__(self, src: str, dst: str, size: float, done: Event, links: tuple, started: float) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.remaining = float(size)
        self.rate = 0.0
        self.done = done
        self.links = links
        self.started = started


class Network:
    """The cluster fabric.  Attach hosts, then ``transfer`` between them."""

    def __init__(self, engine: Engine, cal: Calibration) -> None:
        self.engine = engine
        self.cal = cal
        self._links: dict[str, _Link] = {}
        self._flows: dict[Flow, None] = {}
        self._loaded: set[_Link] = set()  # links carrying at least one flow
        self._hosts: dict[str, PhysicalHost] = {}
        self._last_update = 0.0
        self._timer_token = 0
        self.bytes_delivered = 0.0
        self._cut: set[str] = set()
        self._partition: set[str] | None = None
        self._base_rate: dict[str, float] = {}
        self._extra_latency: dict[str, float] = {}

    # -- topology -----------------------------------------------------------------

    def attach(self, host: PhysicalHost, nic_rate: float | None = None) -> None:
        """Register *host* with an uplink and a downlink."""
        if host.name in self._hosts:
            raise SimulationError(f"host {host.name} already attached")
        rate = nic_rate if nic_rate is not None else self.cal.nic_rate
        for name in (f"{host.name}:up", f"{host.name}:down"):
            self._links[name] = _Link(len(self._links), rate)
        self._hosts[host.name] = host
        self._base_rate[host.name] = rate
        host.network = self

    def host(self, name: str) -> PhysicalHost:
        return self._hosts[name]

    @property
    def host_names(self) -> list[str]:
        return list(self._hosts)

    # -- fault injection ----------------------------------------------------------

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a new flow src -> dst would currently get through."""
        if src == dst:
            return True
        if src in self._cut or dst in self._cut:
            return False
        if self._partition is not None and (src in self._partition) != (dst in self._partition):
            return False
        return True

    def cut(self, host: str) -> None:
        """Unplug *host* from the switch; its in-flight flows fail immediately."""
        if host not in self._hosts:
            raise SimulationError(f"cut of unknown host {host}")
        if host in self._cut:
            return
        self._cut.add(host)
        self._fail_flows(
            lambda f: f.src == host or f.dst == host,
            f"link to {host} was cut",
        )

    def restore(self, host: str) -> None:
        """Plug *host* back in at full NIC rate (clears any degradation too)."""
        if host not in self._hosts:
            raise SimulationError(f"restore of unknown host {host}")
        self._cut.discard(host)
        self.set_link_factor(host, 1.0)
        self.set_extra_latency(host, 0.0)

    def link_factor(self, host: str) -> float:
        """Current capacity fraction of *host*'s links (1.0 = nominal)."""
        return self._links[f"{host}:up"].capacity / self._base_rate[host]

    def set_link_factor(self, host: str, factor: float) -> None:
        """Degrade (or restore) *host*'s NIC to ``factor`` x nominal rate."""
        if host not in self._hosts:
            raise SimulationError(f"degrade of unknown host {host}")
        if not 0.0 < factor <= 1.0:
            raise SimulationError(f"link factor must be in (0, 1], got {factor}")
        capacity = self._base_rate[host] * factor
        self._advance()
        self._links[f"{host}:up"].capacity = capacity
        self._links[f"{host}:down"].capacity = capacity
        self._recompute_and_schedule()

    def extra_latency(self, host: str) -> float:
        """Injected per-packet latency currently added at *host* (seconds)."""
        return self._extra_latency.get(host, 0.0)

    def set_extra_latency(self, host: str, seconds: float) -> None:
        """Add *seconds* of propagation latency to every flow touching *host*.

        Models an intermittently flapping switch port or a congested
        top-of-rack queue: bandwidth is untouched, only latency grows.
        0.0 restores the nominal fabric latency.
        """
        if host not in self._hosts:
            raise SimulationError(f"latency injection on unknown host {host}")
        if seconds < 0:
            raise SimulationError(f"extra latency must be >= 0, got {seconds}")
        if seconds == 0.0:
            self._extra_latency.pop(host, None)
        else:
            self._extra_latency[host] = seconds

    def _latency(self, src: str, dst: str) -> float:
        """Propagation latency src -> dst including injected extras."""
        return (self.cal.net_latency
                + self._extra_latency.get(src, 0.0)
                + self._extra_latency.get(dst, 0.0))

    def partition(self, isolated: Iterable[str]) -> None:
        """Split the fabric: *isolated* hosts can only reach each other."""
        group = set(isolated)
        unknown = group - set(self._hosts)
        if unknown:
            raise SimulationError(f"partition of unknown hosts {sorted(unknown)}")
        self._partition = group
        self._fail_flows(
            lambda f: (f.src in group) != (f.dst in group),
            "network partitioned",
        )

    def heal_partition(self) -> None:
        """Rejoin the two sides of a partition (new flows only; failed stay failed)."""
        self._partition = None

    def _fail_flows(self, pred: Callable[[Flow], bool], reason: str) -> None:
        """Kill every in-flight flow matching *pred* with a PartitionError."""
        self._advance()
        victims = [f for f in self._flows if pred(f)]
        for f in victims:
            self._remove(f)
            f.done.fail(PartitionError(f"{f.src}->{f.dst}: {reason}"))
            # nobody may be waiting yet; defused failures still raise in waiters
            f.done.defuse()
        self._recompute_and_schedule()

    # -- transfers ------------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Start a flow of *nbytes* from *src* to *dst*; returns completion event.

        The event's value is the flow duration in seconds.
        """
        if src not in self._hosts or dst not in self._hosts:
            raise SimulationError(f"transfer between unknown hosts {src}->{dst}")
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        done = self.engine.event()
        if src == dst:
            # Loopback: latency-free memcpy, not subject to NIC contention.
            self.engine.call_later(nbytes / LOOPBACK_RATE,
                                   self._deliver_loopback, done, nbytes)
            return done

        if not self.reachable(src, dst):
            self.engine.call_later(self.cal.net_latency, self._drop, done, src, dst)
            return done

        if nbytes == 0:
            dur = self._latency(src, dst)
            self.engine.call_later(dur, done.succeed, dur)
            return done

        links = (self._links[f"{src}:up"], self._links[f"{dst}:down"])
        flow = Flow(src, dst, nbytes, done, links, self.engine.now)
        self._advance()
        self._flows[flow] = None
        for link in links:
            if not link.flows:
                self._loaded.add(link)
            link.flows[flow] = None
        self._recompute_and_schedule()
        return done

    def active_flow_count(self) -> int:
        return len(self._flows)

    def _deliver_loopback(self, done: Event, nbytes: float) -> None:
        self.bytes_delivered += nbytes
        done.succeed(nbytes / LOOPBACK_RATE)

    @staticmethod
    def _drop(done: Event, src: str, dst: str) -> None:
        done.fail(PartitionError(f"{src}->{dst}: unreachable"))
        done.defuse()

    # -- fluid model internals ----------------------------------------------------

    def _advance(self) -> None:
        """Account progress of every flow since the last rate change."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for f in self._flows:
                f.remaining = max(0.0, f.remaining - f.rate * dt)
        self._last_update = now

    def _remove(self, flow: Flow) -> None:
        del self._flows[flow]
        for link in flow.links:
            del link.flows[flow]
            if not link.flows:
                self._loaded.discard(link)

    def _max_min_rates(self) -> None:
        """Progressive-filling max-min fairness over the loaded links.

        Each round freezes the unfrozen flows of the bottleneck -- the first
        link in attach order with the strictly smallest ``residual /
        unfrozen`` -- at that share, subtracting it once per flow from
        every link the flow crosses.  Per-link counts shrink as flows
        freeze instead of being recounted, so a pass costs one scan of the
        loaded links per bottleneck.  Rates are bit-identical to the
        recount-everything oracle in ``tests/hardware/maxmin_oracle.py``.
        """
        loaded = sorted(self._loaded, key=_attach_order)
        for link in loaded:
            link.residual = link.capacity
            link.unfrozen = len(link.flows)
        frozen: set[Flow] = set()
        while True:
            best_share = None
            best_link = None
            for link in loaded:
                n = link.unfrozen
                if n:
                    share = link.residual / n
                    if best_share is None or share < best_share:
                        best_share = share
                        best_link = link
            if best_link is None:
                return
            for f in best_link.flows:
                if f in frozen:
                    continue
                frozen.add(f)
                f.rate = best_share
                for link in f.links:
                    link.residual -= best_share
                    link.unfrozen -= 1
            best_link.residual = 0.0

    def _recompute_and_schedule(self) -> None:
        self._max_min_rates()
        self._timer_token += 1
        token = self._timer_token
        # earliest completion among active flows
        next_done = None
        for f in self._flows:
            if f.rate <= 0:
                continue
            t = f.remaining / f.rate
            if next_done is None or t < next_done:
                next_done = t
        if next_done is None:
            return
        # Flows this timer is responsible for finishing.  They are forced to
        # zero when it fires: float rounding can make `now + next_done == now`,
        # in which case _advance() sees dt == 0 and would never drain them,
        # rescheduling a zero-delay timer forever.
        expected = [
            f
            for f in self._flows
            if f.rate > 0 and f.remaining / f.rate <= next_done * (1 + 1e-9)
        ]
        self.engine.call_later(next_done, self._on_timer, token, expected)

    def _on_timer(self, token: int, expected: list[Flow]) -> None:
        """Finish the flows a rate change scheduled to complete now."""
        if token != self._timer_token:
            return  # superseded by a newer rate change
        self._advance()
        for f in expected:
            f.remaining = 0.0
        finished = [f for f in self._flows if f.remaining <= 1e-9]
        for f in finished:
            self._remove(f)
            self.bytes_delivered += f.size
            self._complete(f)
        self._recompute_and_schedule()

    def _complete(self, flow: Flow) -> None:
        """Deliver the completion event after propagation latency."""
        latency = self._latency(flow.src, flow.dst)
        self.engine.call_later(latency, flow.done.succeed,
                               self.engine.now - flow.started + latency)
