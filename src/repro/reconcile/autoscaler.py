"""Hysteresis autoscaling from the observability layer's own numbers.

"Cost-Efficient and Robust On-Demand Video Transcoding" (PAPERS.md)
resizes worker pools against deadline pressure; this module reproduces
the control shape on top of :mod:`repro.obs`: a signal (queue depth or
shed rate, read from the shared metrics registry) is
compared against high/low watermarks, and only *sustained* pressure
(``up_after`` / ``down_after`` consecutive sweeps) plus a cooldown moves
the replica count.  The hysteresis is the point: a storm's first burst
must not whipsaw the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..common.errors import ReconcileError
from ..obs import MetricsRegistry

#: a signal reads the world and returns one number for the control loop
Signal = Callable[[], float]


def queue_depth_signal(metrics: MetricsRegistry,
                       family: str = "admission_queued") -> Signal:
    """Total work queued across every admission controller."""
    return lambda: metrics.family_total(family)


def shed_rate_signal(metrics: MetricsRegistry, clock: Callable[[], float],
                     family: str = "admission_shed_total") -> Signal:
    """Sheds per second since the previous reading (delta-based)."""
    state = {"total": 0.0, "at": clock()}

    def _rate() -> float:
        now = clock()
        total = metrics.family_total(family)
        dt = now - state["at"]
        rate = (total - state["total"]) / dt if dt > 0 else 0.0
        state["total"], state["at"] = total, now
        return rate

    return _rate


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermarks + hysteresis for one pool."""

    pool: str
    high: float                     # scale up while signal > high ...
    low: float                      # ... scale down while signal < low
    up_after: int = 2               # consecutive sweeps above high
    down_after: int = 4             # consecutive sweeps below low
    cooldown: float = 30.0          # seconds between scaling actions
    step: int = 1                   # replicas added/removed per action

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ReconcileError(
                f"autoscaler {self.pool}: low {self.low} > high {self.high}")
        if self.up_after < 1 or self.down_after < 1:
            raise ReconcileError("up_after/down_after must be >= 1")
        if self.cooldown < 0:
            raise ReconcileError("cooldown must be >= 0")
        if self.step < 1:
            raise ReconcileError("step must be >= 1")


class Autoscaler:
    """One pool's hysteresis loop; evaluated by the reconciler each sweep."""

    def __init__(self, policy: AutoscalePolicy, signal: Signal) -> None:
        self.policy = policy
        self.signal = signal
        self.above = 0              # consecutive sweeps above high
        self.below = 0              # consecutive sweeps below low
        self.last_action: float | None = None
        self.last_value = 0.0

    def evaluate(self, now: float, replicas: int) -> int:
        """The replica count this sweep wants (== *replicas* for no-op)."""
        value = self.signal()
        self.last_value = value
        if value > self.policy.high:
            self.above += 1
            self.below = 0
        elif value < self.policy.low:
            self.below += 1
            self.above = 0
        else:
            self.above = self.below = 0
        in_cooldown = (self.last_action is not None
                       and now - self.last_action < self.policy.cooldown)
        if in_cooldown:
            return replicas
        if self.above >= self.policy.up_after:
            self.above = 0
            self.last_action = now
            return replicas + self.policy.step
        if self.below >= self.policy.down_after:
            self.below = 0
            self.last_action = now
            return replicas - self.policy.step
        return replicas
