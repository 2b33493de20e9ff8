"""Simulation-time metrics: Counter / Gauge / Histogram + a registry.

The paper's evaluation is 23 screenshots because the stack had no way to
measure itself.  This module gives every layer a shared, deterministic
metrics surface: instruments are created through a
:class:`MetricsRegistry` (get-or-create, so independent subsystems can
share families), carry Prometheus-style labels, and render to the
Prometheus text exposition format served by the portal's ``/metrics``
endpoint.

All timestamps and durations are *simulated* seconds -- instruments never
consult the wall clock, so two runs with the same seed produce the same
``/metrics`` page byte-for-byte.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..common.errors import ConfigError

#: default latency buckets, seconds -- spans sub-millisecond page serves
#: up to multi-minute transcodes
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, float("inf"),
)

_METRIC_KINDS = ("counter", "gauge", "histogram")


def _check_labels(labelnames: tuple[str, ...], labels: dict[str, str]) -> tuple:
    """Validate a label assignment against the family's label names."""
    if set(labels) != set(labelnames):
        raise ConfigError(
            f"labels {sorted(labels)} do not match declared "
            f"label names {sorted(labelnames)}"
        )
    return tuple(str(labels[n]) for n in labelnames)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(labelnames: tuple[str, ...], values: tuple[str, ...],
                  extra: str = "") -> str:
    """Render a ``{k="v",...}`` label block (empty string when unlabelled)."""
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(labelnames, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Metric:
    """Base family: owns labelled children; unlabelled families are their
    own single child so call sites can write ``counter.inc()`` directly."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise ConfigError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple, Metric] = {}
        if not self.labelnames:
            self._children[()] = self
        self.labelvalues: tuple[str, ...] = ()

    def labels(self, **labels: str) -> "Metric":
        """The child instrument for one label assignment (created on use)."""
        key = _check_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            child.labelvalues = key
            self._children[key] = child
        return child

    def _make_child(self) -> "Metric":
        raise NotImplementedError

    def children(self) -> Iterator["Metric"]:
        """All live children in first-created order."""
        return iter(self._children.values())

    def _require_leaf(self) -> None:
        if self.labelnames and not self.labelvalues and self._children.get(()) is not self:
            raise ConfigError(
                f"{self.name} has labels {self.labelnames}; "
                f"call .labels(...) first"
            )


class Counter(Metric):
    """Monotonically increasing count (requests, bytes, failovers)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down (live connections, pending VMs)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name)

    def set(self, value: float) -> None:
        self._require_leaf()
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._require_leaf()
        self.value -= amount


class Histogram(Metric):
    """Sampled distribution with exact percentiles.

    Keeps every observation (simulation scale makes that cheap), so
    :meth:`percentile` is exact -- linear interpolation between closest
    ranks, the same definition numpy's default uses.  Bucket counts for
    the Prometheus rendering are derived from the samples at render time.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        if not buckets or sorted(buckets) != list(buckets):
            raise ConfigError(f"histogram {name}: buckets must be sorted")
        self.buckets = tuple(buckets) if buckets[-1] == float("inf") \
            else tuple(buckets) + (float("inf"),)
        self.samples: list[float] = []
        self.sum = 0.0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, buckets=self.buckets)

    def observe(self, value: float) -> None:
        self._require_leaf()
        self.samples.append(float(value))
        self.sum += value

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return self.sum / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile by linear interpolation between closest ranks."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile {p} outside [0, 100]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] + frac * (ordered[hi] - ordered[lo])

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs over the declared buckets."""
        ordered = sorted(self.samples)
        out = []
        i = 0
        for le in self.buckets:
            while i < len(ordered) and ordered[i] <= le:
                i += 1
            out.append((le, i))
        return out


class MetricsRegistry:
    """Shared, get-or-create home for every instrument in one simulation."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- creation ------------------------------------------------------------

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, labels,
                                     buckets=buckets)
        return metric

    def _get_or_create(self, cls, name, help, labels, **kw) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(
                    f"{name} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            if existing.labelnames != tuple(labels):
                raise ConfigError(
                    f"{name} already registered with labels "
                    f"{existing.labelnames}, not {tuple(labels)}"
                )
            return existing
        metric = cls(name, help, tuple(labels), **kw)
        self._metrics[name] = metric
        return metric

    # -- access --------------------------------------------------------------

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise ConfigError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def families(self) -> list[Metric]:
        return [self._metrics[n] for n in sorted(self._metrics)]

    # -- aggregation (control-loop signals) -----------------------------------

    def family_total(self, name: str, default: float = 0.0) -> float:
        """Sum of a counter/gauge family across all label children.

        The autoscaler's view of e.g. ``admission_queued``: one number for
        the whole family, *default* when the family does not exist yet
        (nothing instrumented has run).
        """
        if name not in self._metrics:
            return default
        family = self.get(name)
        if isinstance(family, Histogram):
            raise ConfigError(
                f"{name} is a histogram, not a counter or gauge")
        return sum(child.value for child in family.children())

    # -- exposition ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (served at ``/metrics``)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                block = format_labels(family.labelnames, child.labelvalues)
                if isinstance(child, Histogram):
                    for le, count in child.bucket_counts():
                        le_txt = "+Inf" if le == float("inf") else _fmt(le)
                        bucket_block = format_labels(
                            family.labelnames, child.labelvalues,
                            extra=f'le="{le_txt}"')
                        lines.append(
                            f"{family.name}_bucket{bucket_block} {count}")
                    lines.append(f"{family.name}_sum{block} {_fmt(child.sum)}")
                    lines.append(f"{family.name}_count{block} {child.count}")
                else:
                    lines.append(f"{family.name}{block} {_fmt(child.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
