"""The benchmark result harness: one shape, one publish call.

Every ``benchmarks/bench_*.py`` used to print its own ad-hoc tables and
hand-rolled ``show_json`` payloads; regression tooling had to know each
bench's private format.  PR 7 replaces that with :class:`BenchResult` --
name, params, metrics, seed, and (when measured) kernel events/sec --
published through a single :func:`emit` call that renders the human
tables *and* the machine-readable ``### BENCH_JSON <tag>`` block that
``benchmarks/snapshot.py`` archives into the committed ``BENCH_*.json``
trajectory files.

The first block of a process is preceded by an ``analyzer`` header naming
the invariant-checker version and rule count the tree passed, so archived
bench numbers stay attributable to an invariant set.

This module is wall-clock-aware by design (it *measures* the simulator,
it is not part of a simulation): :class:`KernelRate` divides the engine's
``events_dispatched`` delta by elapsed ``perf_counter`` time, which is
the events/sec figure the kernel fast-path work is judged by.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..analysis import ALL_CHECKS, ANALYZER_VERSION
from ..common.errors import ConfigError
from ..common.tables import format_table
from ..sim import Engine

__all__ = ["BenchResult", "KernelRate", "emit"]

#: emitted once per process, ahead of the first payload
_analyzer_header_emitted = False


@dataclass
class BenchResult:
    """One bench's published result: identity, inputs, outputs.

    *name* doubles as the ``BENCH_JSON`` tag (snake_case, e.g.
    ``e_chaos``); *params* are the experiment inputs worth archiving;
    *metrics* are the simulated outputs (the numbers that correspond to
    what the paper shows); *seed* pins reproducibility; *events_per_sec*
    is the wall-clock kernel throughput observed while producing them.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    events_per_sec: float | None = None
    #: wall-clock measurements (seconds).  Archived for the trajectory
    #: but -- like ``events_per_sec`` -- never compared by
    #: ``snapshot.py --check``, which gates on ``metrics`` only:
    #: simulated outputs must be deterministic, wall time never is.
    timings: dict[str, float] | None = None
    #: human-facing tables: (title, headers, rows)
    tables: list[tuple[str, Sequence[str], list[Sequence[Any]]]] = \
        field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ConfigError(
                f"BenchResult.name must be a snake_case tag, got {self.name!r}")

    def table(self, title: str, headers: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> "BenchResult":
        """Attach a human-facing table (chainable)."""
        self.tables.append((title, list(headers), [list(r) for r in rows]))
        return self

    def payload(self) -> dict[str, Any]:
        """The JSON-ready block body archived by snapshot.py."""
        body: dict[str, Any] = {"params": self.params, "metrics": self.metrics}
        if self.seed is not None:
            body["seed"] = self.seed
        if self.events_per_sec is not None:
            body["events_per_sec"] = round(self.events_per_sec, 1)
        if self.timings is not None:
            body["timings"] = {k: round(v, 3)
                               for k, v in sorted(self.timings.items())}
        return body

    def render(self) -> str:
        """All attached tables as display text."""
        blocks = [format_table(headers, rows, title=title)
                  for title, headers, rows in self.tables]
        return "\n\n".join(blocks)


def emit(result: BenchResult,
         write: Callable[[str], None] = print) -> None:
    """Publish one result: tables first, then its ``BENCH_JSON`` block.

    Pytest benches call this through ``benchmarks/_util.publish`` (which
    routes around pytest's capture); scripts can call it directly.
    """
    global _analyzer_header_emitted
    rendered = result.render()
    if rendered:
        write("")
        write(rendered)
        write("")
    if not _analyzer_header_emitted:
        _analyzer_header_emitted = True
        header = {"analyzer_version": ANALYZER_VERSION,
                  "rule_count": len(ALL_CHECKS)}
        write(f"### BENCH_JSON analyzer {json.dumps(header, sort_keys=True)}")
    write(f"### BENCH_JSON {result.name} "
          f"{json.dumps(result.payload(), sort_keys=True)}")


class KernelRate:
    """Accumulates wall-clock kernel throughput across measured runs.

    >>> rate = KernelRate()
    >>> with rate.measure(engine):
    ...     engine.run()
    >>> result.events_per_sec = rate.events_per_sec
    """

    def __init__(self) -> None:
        self.events = 0
        self.seconds = 0.0

    @property
    def events_per_sec(self) -> float:
        if self.seconds <= 0.0:
            raise ConfigError("KernelRate: nothing measured yet")
        return self.events / self.seconds

    def measure(self, engine: Engine) -> "_Measurement":
        return _Measurement(self, engine)


class _Measurement:
    """Context manager: one timed window over an engine."""

    def __init__(self, rate: KernelRate, engine: Engine) -> None:
        self._rate = rate
        self._engine = engine
        self._events0 = 0
        self._t0 = 0.0

    def __enter__(self) -> "_Measurement":
        self._events0 = self._engine.events_dispatched
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._t0
        self._rate.seconds += elapsed
        self._rate.events += self._engine.events_dispatched - self._events0
