"""A health-gated round-robin load balancer over portal replicas.

The paper serves the portal from a single Lighttpd; the reconciler grows
that into a *pool* of identical replicas (each a :class:`WebServer`
sharing the primary's route tables).  This front door spreads requests
round-robin over the replicas whose hosts are up, so losing one replica
degrades capacity instead of availability -- and gives the reconciler a
place to add and drain members during rolling upgrades.

Two opt-in gray-failure defences ride on top of the binary host gate:

* :meth:`LoadBalancer.enable_gray_gate` probes every backend on a
  cadence and feeds the arrivals into a phi-accrual
  :class:`~repro.resilience.FailureDetectorBank`; backends whose
  suspicion crosses the threshold are passed over for new traffic even
  though their hosts still answer (a slow replica is a capacity trap).
* :meth:`LoadBalancer.enable_hedged_dispatch` races a tail-slow GET
  against one backup dispatch to the next replica, token-budgeted so
  hedges cannot amplify an overload (Dean's *The Tail at Scale*).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from ..common.errors import ConfigError, PartitionError, WebError
from ..hardware import Cluster
from ..resilience import (
    FailureDetectorBank,
    HedgeBudget,
    LatencyTracker,
    ProbeGate,
)
from ..sim import Interrupt, Process
from .server import Request, Response, WebServer


class LoadBalancer:
    """Round-robin dispatch over named, health-gated backends."""

    def __init__(self, cluster: Cluster, name: str = "lb") -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.name = name
        #: backend name -> server, in registration order (dicts preserve it)
        self.backends: dict[str, WebServer] = {}
        #: backends registered but not yet taking traffic (upgrade surge)
        self.draining: set[str] = set()
        self._rr = 0
        #: phi-accrual suspicion over backend probe arrivals (opt-in)
        self.detectors: FailureDetectorBank | None = None
        self.suspicion_threshold = 8.0
        self._probe_epoch = 0
        self._probe_stop = False
        self._probe_from: str | None = None
        self._probe_bytes = 4096
        self._probe_seconds = 0.002
        #: per-backend Karn-gated probe RTT filters (gray-gate mode)
        self._probe_gates: dict[str, ProbeGate] = {}
        #: hedged-dispatch policy (opt-in)
        self.hedge_tracker: LatencyTracker | None = None
        self.hedge_budget: HedgeBudget | None = None
        self._m_hedged = self._m_wins = self._m_denied = None
        self._m_requests = cluster.metrics.counter(
            "lb_requests_total", "requests dispatched by the load balancer",
            labels=("backend",))
        self._m_no_backend = cluster.metrics.counter(
            "lb_no_backend_total",
            "requests refused because no healthy backend was up")
        self._m_backends = cluster.metrics.gauge(
            "lb_backends", "registered backends", labels=("state",))

    # -- membership ----------------------------------------------------------

    def add_backend(self, name: str, server: WebServer) -> None:
        if name in self.backends:
            raise WebError(f"{self.name}: backend {name} already registered")
        self.backends[name] = server
        if self.detectors is not None:
            self.detectors.heartbeat(name)  # registration counts as arrival
        self._sync_gauges()
        self.cluster.log.emit("web.lb", "backend_added",
                              f"{self.name}: backend {name} joined "
                              f"(host {server.host.name})", backend=name)

    def remove_backend(self, name: str) -> WebServer:
        try:
            server = self.backends.pop(name)
        except KeyError:
            raise WebError(f"{self.name}: no backend {name}") from None
        self.draining.discard(name)
        if self.detectors is not None:
            self.detectors.forget(name)
        self._probe_gates.pop(name, None)
        self._sync_gauges()
        self.cluster.log.emit("web.lb", "backend_removed",
                              f"{self.name}: backend {name} left", backend=name)
        return server

    def drain(self, name: str) -> None:
        """Stop sending *name* new requests (in-flight ones finish)."""
        if name not in self.backends:
            raise WebError(f"{self.name}: no backend {name}")
        self.draining.add(name)
        self._sync_gauges()

    def undrain(self, name: str) -> None:
        if name not in self.backends:
            raise WebError(f"{self.name}: no backend {name}")
        self.draining.discard(name)
        self._sync_gauges()

    def healthy_backends(self) -> list[str]:
        """Backends eligible for traffic: host up, not draining, and --
        with the gray gate on -- not phi-suspect.  If suspicion would
        empty the pool entirely, the ungated list applies anyway (forced
        traffic to a slow replica beats refusing every request)."""
        healthy = [n for n, s in self.backends.items()
                   if s.host.alive and n not in self.draining]
        if self.detectors is None:
            return healthy
        known = self.detectors.targets()
        trusted = [n for n in healthy
                   if n not in known
                   or self.detectors.phi(n) < self.suspicion_threshold]
        return trusted or healthy

    def _sync_gauges(self) -> None:
        healthy = len(self.healthy_backends())
        self._m_backends.labels(state="healthy").set(healthy)
        self._m_backends.labels(state="total").set(len(self.backends))

    # -- gray-failure defences ----------------------------------------------

    def enable_gray_gate(
        self,
        *,
        threshold: float = 8.0,
        interval: float = 1.0,
        probe_from: str | None = None,
        probe_bytes: int = 4096,
        probe_seconds: float = 0.002,
        window: int = 64,
    ) -> FailureDetectorBank:
        """Probe backends on a cadence and gate traffic on phi suspicion.

        Each probe costs real simulated work on the backend -- a CPU
        slice (stretched by ``cpu_throttle``) plus, when *probe_from*
        names a vantage host, a network hop (stretched by NIC
        degradation and injected latency) -- so every fail-slow fault
        family delays probe arrivals and raises phi.  Idempotent.
        """
        if self.detectors is not None:
            return self.detectors
        if threshold <= 0 or interval <= 0:
            raise ConfigError("need threshold > 0 and interval > 0")
        if probe_bytes <= 0 or probe_seconds <= 0:
            raise ConfigError("need probe_bytes > 0 and probe_seconds > 0")
        if probe_from is not None \
                and probe_from not in self.cluster.host_names:
            raise ConfigError(f"probe_from host {probe_from!r} not in cluster")
        self.suspicion_threshold = threshold
        self._probe_from = probe_from
        self._probe_bytes = probe_bytes
        self._probe_seconds = probe_seconds
        self.detectors = FailureDetectorBank(
            f"{self.name}-backends", lambda: self.engine.now,
            window=window,
            min_std=max(0.05, 0.1 * interval),
            bootstrap_interval=interval,
            metrics=self.cluster.metrics)
        for name in self.backends:
            self.detectors.heartbeat(name)
        self._start_probes(interval)
        return self.detectors

    def _probe(self, name: str) -> Generator:
        """Process: one backend health probe; arrival feeds the bank."""
        engine = self.engine

        def _run():
            server = self.backends.get(name)
            if server is None or not server.host.alive:
                return
            t0 = engine.now
            yield from server.host.compute_seconds(self._probe_seconds)
            if (self._probe_from is not None
                    and self._probe_from != server.host.name):
                try:
                    yield self.cluster.network.transfer(
                        server.host.name, self._probe_from, self._probe_bytes)
                except PartitionError:
                    return  # probe lost; the detector sees silence
            if (self.detectors is None or name not in self.backends
                    or not self.backends[name].host.alive):
                return
            # Karn-gated RTT filter: a probe far over the backend's own
            # baseline is suppressed, so constant gray slowness shows up
            # as silence (phi rises) instead of a phase-shifted arrival
            gate = self._probe_gates.setdefault(name, ProbeGate())
            if gate.admit(engine.now - t0):
                self.detectors.heartbeat(name)

        return _run()

    def _start_probes(self, interval: float) -> None:
        """Fire-and-forget probe loop (epoch/flag stop, like heartbeats)."""
        self._probe_stop = False
        self._probe_epoch += 1
        epoch = self._probe_epoch
        engine = self.engine

        def _tick() -> None:
            if epoch != self._probe_epoch or self._probe_stop:
                return
            for name in sorted(self.backends):
                if self.backends[name].host.alive:
                    engine.process(self._probe(name),
                                   name=f"lb-probe-{name}")
            engine.call_later(interval, _tick)

        engine.call_later(0.0, _tick, urgent=True)

    def stop_probes(self) -> None:
        self._probe_stop = True

    def enable_hedged_dispatch(
        self,
        *,
        ratio: float = 0.1,
        burst: float = 8.0,
        tail_factor: float = 4.0,
        alpha: float = 0.2,
    ) -> None:
        """Race tail-slow GETs against one backup dispatch (idempotent).

        Only GETs hedge -- a duplicated POST would double-apply.  The
        backup goes to the next replica in round-robin order, the first
        response wins (ties to the primary, so winner selection is
        seed-deterministic), and a token budget earned at *ratio* per
        primary caps how many backups an overload can fan out.
        """
        if self.hedge_tracker is not None:
            return
        self.hedge_tracker = LatencyTracker(
            alpha=alpha, tail_factor=tail_factor)
        self.hedge_budget = HedgeBudget(ratio=ratio, burst=burst)
        metrics = self.cluster.metrics
        self._m_hedged = metrics.counter(
            "lb_hedged_requests_total", "backup dispatches fired")
        self._m_wins = metrics.counter(
            "lb_hedge_wins_total", "dispatch races won per contender",
            labels=("winner",))
        self._m_denied = metrics.counter(
            "lb_hedge_denied_total",
            "hedges skipped because the token budget was dry")

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: Request) -> Generator:
        """Process: pick the next healthy backend and serve through it."""

        def _dispatch():
            healthy = self.healthy_backends()
            if not healthy:
                self._m_no_backend.inc()
                return Response.json_error(
                    f"{self.name}: no healthy backend", status=503,
                    retry_after=5.0)
            name = healthy[self._rr % len(healthy)]
            self._rr += 1
            self._m_requests.labels(backend=name).inc()
            tracker = self.hedge_tracker
            hedgeable = (tracker is not None and request.method == "GET"
                         and tracker.primed and len(healthy) > 1)
            if not hedgeable:
                t0 = self.engine.now
                response = yield self.engine.process(
                    self.backends[name].handle(request))
                if (tracker is not None and request.method == "GET"
                        and response.ok):
                    tracker.observe(self.engine.now - t0)
                return response
            backup = healthy[self._rr % len(healthy)]
            response = yield from self._dispatch_hedged(request, name, backup)
            return response

        return _dispatch()

    def _spawn_dispatch(self, name: str, request: Request) -> Process:
        """Guard process around one backend dispatch for the hedge race.

        Never fails: resolves to ``(name, response | None, error | None,
        elapsed)``; a lost race yields the cancelled marker
        ``(name, None, None, t)``.  The inner handle is defused, not
        interrupted -- the backend finishes the (wasted) work and the
        reply is dropped, which is how real HTTP hedging behaves.
        """
        engine = self.engine

        def _attempt() -> Generator:
            t0 = engine.now
            inner = engine.process(self.backends[name].handle(request))
            try:
                response = yield inner
            except (WebError, PartitionError) as exc:
                return (name, None, exc, engine.now - t0)
            except Interrupt:
                inner.defuse()
                return (name, None, None, engine.now - t0)
            return (name, response, None, engine.now - t0)

        return engine.process(_attempt(), name=f"lb-hedge-{name}")

    def _dispatch_hedged(self, request: Request, name: str,
                         backup: str) -> Generator:
        """Process body: race *name* against the tail threshold, hedging
        to *backup* when the budget allows; first response wins."""
        engine = self.engine
        tracker = self.hedge_tracker
        budget = self.hedge_budget
        assert tracker is not None and budget is not None
        primary = self._spawn_dispatch(name, request)
        yield engine.any_of([primary, engine.timeout(tracker.threshold())])
        secondary = None
        if not primary.triggered:
            if budget.try_spend():
                self._m_hedged.inc()
                # the backup gets its own Request: the server stamps
                # deadlines onto the request object, and two in-flight
                # dispatches must not share that mutable state
                secondary = self._spawn_dispatch(backup, replace(request))
            else:
                self._m_denied.inc()
        if secondary is None:
            outcomes = [(yield primary)]
        else:
            yield engine.any_of([primary, secondary])
            racers = (primary, secondary)
            outcomes = [p.value for p in racers if p.triggered]
            if not any(o[1] is not None for o in outcomes):
                for proc in racers:  # all finished attempts failed
                    if not proc.triggered:
                        outcomes.append((yield proc))
            else:
                for proc in racers:
                    if not proc.triggered and proc.is_alive:
                        proc.defuse()
                        proc.interrupt("hedge lost")
        winner: tuple[str, Response] | None = None
        for oname, oresp, oerr, odur in outcomes:
            if oresp is None:
                continue
            if oresp.ok:
                tracker.observe(odur)
            if winner is None:
                role = "primary" if oname == name else "hedge"
                winner = (role, oresp)
        if winner is not None:
            budget.record_primary()
            self._m_wins.labels(winner=winner[0]).inc()
            return winner[1]
        # every attempt erred: surface the primary's error (matches the
        # unhedged path, where the backend exception propagates)
        for oname, _oresp, oerr, _odur in outcomes:
            if oerr is not None:
                raise oerr
        raise WebError(f"{self.name}: hedged dispatch lost both attempts")
