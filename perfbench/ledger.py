"""The per-layer host-time ledger of a traced run.

Two views, both taken from outside ``src/repro``:

* :class:`Ledger` wraps the public entry points of each layer at run time
  (class attributes are swapped, nothing in the package is edited).  Every
  wrapped call becomes a :class:`Span` with its parent span, a request id,
  simulated start and end, and the host time spent inside it.  A call that
  returns a generator gets a generator wrapper that sums host time across
  every resume; a call that returns an event is timed for the call itself
  (for ``Network.transfer`` that includes the max-min re-solve) and ends
  when the event fires.  The wrappers schedule nothing, so the simulation
  is unchanged -- ``run.py`` proves it by comparing ``sim_digest`` between
  traced and untraced runs of one seed.
* :func:`layer_self_time` groups a cProfile run's ``tottime`` by
  ``repro.<layer>`` package, which also attributes work started by internal
  timers that no public call covers.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Generator

from summary import host_clock

import repro.web.portal
from repro.fusehdfs import HdfsMount
from repro.hardware import Network
from repro.hardware.host import Disk, PhysicalHost
from repro.hdfs.client import HdfsClient
from repro.mapreduce import JobTracker
from repro.one import ServiceManager
from repro.search import SearchEngine
from repro.sim import Engine, Event
from repro.video import DistributedTranscoder, PlaybackSession, StreamingServer
from repro.web import VideoPortal

#: layers reported by name; every other file (stdlib, builtins, the rest of
#: repro, this benchmark) is "other"
LAYERS = ("sim", "hardware", "hdfs", "fusehdfs", "video", "mapreduce",
          "search", "web", "obs", "one", "virt", "drivers", "common",
          "resilience")

#: (owner, attribute, span name, kind) -- kind is "gen" for calls that
#: return a generator, "event" for calls that return a completion event and
#: "call" for plain calls.  The portal answers ``GET /search`` with
#: ``repro.search.ux.paginate``, so that name is wrapped where the portal
#: looks it up.
ENTRY_POINTS: tuple[tuple[Any, str, str, str], ...] = (
    (Network, "transfer", "hardware.transfer", "event"),
    (Disk, "read", "hardware.disk_read", "gen"),
    (Disk, "write", "hardware.disk_write", "gen"),
    (PhysicalHost, "compute", "hardware.compute", "gen"),
    (HdfsClient, "write_file", "hdfs.write", "gen"),
    (HdfsClient, "write_synthetic", "hdfs.write", "gen"),
    (HdfsClient, "read_file", "hdfs.read", "gen"),
    (HdfsMount, "write_sized", "fusehdfs.write", "gen"),
    (HdfsMount, "write", "fusehdfs.write", "gen"),
    (HdfsMount, "read", "fusehdfs.read", "gen"),
    (StreamingServer, "stream_range", "video.stream_range", "event"),
    (PlaybackSession, "run", "video.session", "gen"),
    (DistributedTranscoder, "convert_distributed", "video.transcode", "gen"),
    (JobTracker, "submit", "mapreduce.job", "gen"),
    (SearchEngine, "search", "search.query", "gen"),
    (repro.web.portal, "paginate", "search.query", "call"),
    (SearchEngine, "refresh", "search.refresh", "gen"),
    (VideoPortal, "request", "web.request", "gen"),
    (ServiceManager, "deploy", "one.deploy", "gen"),
)


class Span:
    """One wrapped call: identity, causality, simulated and host time."""

    __slots__ = ("id", "parent", "request", "name", "sim_start", "sim_end",
                 "host_s", "ok", "nbytes")

    def __init__(self, span_id: int, parent: "Span | None", name: str) -> None:
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.request = parent.request if parent is not None else span_id
        self.name = name
        self.sim_start: float | None = None
        self.sim_end: float | None = None
        self.host_s = 0.0
        self.ok = True
        self.nbytes = 0.0

    def row(self) -> list[Any]:
        return [self.id, self.parent, self.request, self.name, self.sim_start,
                self.sim_end, self.host_s, self.ok]


class Ledger:
    """Spans and counts gathered by wrapping each layer's public calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.processes: Counter[str] = Counter()
        self.peak_flows = 0
        self._engine: Engine | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Ledger":
        """Swap every entry point (and ``Engine.process``) for a wrapper."""
        for owner, attr, name, kind in ENTRY_POINTS:
            wrap = {"gen": self._wrap_gen, "event": self._wrap_event,
                    "call": self._wrap_call}[kind]
            self._patch(owner, attr, wrap(owner.__dict__[attr], name))
        self._patch(Engine, "process", self._wrap_process(Engine.process))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ------------------------------------------------------------

    def _now(self) -> float:
        return self._engine.now if self._engine is not None else 0.0

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name)
        self.spans.append(span)
        return span

    def _wrap_process(self, original: Callable[..., Any]) -> Callable[..., Any]:
        ledger = self

        def process(engine: Engine, generator: Generator,
                    name: str | None = None) -> Any:
            ledger._engine = engine
            ledger.processes[name or ""] += 1
            return original(engine, generator, name)

        return process

    def _wrap_call(self, original: Callable[..., Any],
                   name: str) -> Callable[..., Any]:
        ledger = self

        def call(*args: Any, **kwargs: Any) -> Any:
            span = ledger._open(name)
            span.sim_start = span.sim_end = ledger._now()
            ledger._stack.append(span)
            t0 = host_clock()
            try:
                return original(*args, **kwargs)
            finally:
                span.host_s = host_clock() - t0
                ledger._stack.pop()

        return call

    def _wrap_event(self, original: Callable[..., Event],
                    name: str) -> Callable[..., Event]:
        ledger = self

        def call(obj: Any, *args: Any, **kwargs: Any) -> Event:
            span = ledger._open(name)
            span.sim_start = ledger._now()
            ledger._stack.append(span)
            t0 = host_clock()
            try:
                done = original(obj, *args, **kwargs)
            finally:
                span.host_s = host_clock() - t0
                ledger._stack.pop()
            if name == "hardware.transfer":
                span.nbytes = float(args[2] if len(args) > 2
                                    else kwargs["nbytes"])
                ledger.peak_flows = max(ledger.peak_flows,
                                        obj.active_flow_count())

            def finish(event: Event) -> None:
                span.sim_end = ledger._now()
                span.ok = event.ok

            done.callbacks.append(finish)
            return done

        return call

    def _wrap_gen(self, original: Callable[..., Generator],
                  name: str) -> Callable[..., Generator]:
        ledger = self

        def call(obj: Any, *args: Any, **kwargs: Any) -> Generator:
            span = ledger._open(name)
            t0 = host_clock()
            inner = original(obj, *args, **kwargs)
            span.host_s = host_clock() - t0
            return ledger._timed(span, inner)

        return call

    def _timed(self, span: Span, inner: Generator) -> Generator:
        """Drive *inner* step by step, charging each resume to *span*."""
        stack = self._stack
        span.sim_start = self._now()
        value: Any = None
        error: BaseException | None = None
        while True:
            stack.append(span)
            t0 = host_clock()
            try:
                target = inner.send(value) if error is None \
                    else inner.throw(error)
            except StopIteration as stop:
                span.host_s += host_clock() - t0
                stack.pop()
                span.sim_end = self._now()
                result = stop.value
                span.ok = getattr(result, "ok", True) is not False
                return result
            except BaseException:
                span.host_s += host_clock() - t0
                stack.pop()
                span.sim_end = self._now()
                span.ok = False
                raise
            span.host_s += host_clock() - t0
            stack.pop()
            try:
                value = yield target
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the wrapped call
                value, error = None, exc

    # -- results -------------------------------------------------------------

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span)
        return out

    def completed_transfer_bytes(self) -> float:
        """Bytes of the transfers this ledger saw complete successfully."""
        return sum(s.nbytes for s in self.spans
                   if s.name == "hardware.transfer" and s.sim_end is not None
                   and s.ok)

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(["id", "parent", "request", "name",
                                  "sim_start", "sim_end", "host_s", "ok"]))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span.row()))
                out.write("\n")


def _layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    package = path[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def layer_self_time(profiler: cProfile.Profile) -> dict[str, float]:
    """cProfile ``tottime`` summed per ``repro.<layer>`` (plus "other")."""
    totals = dict.fromkeys((*LAYERS, "other"), 0.0)
    stats = pstats.Stats(profiler)
    for (filename, _line, _func), row in stats.stats.items():  # type: ignore[attr-defined]
        totals[_layer_of(filename)] += row[2]
    return totals
