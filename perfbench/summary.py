"""Shared by the parent and the measuring process: the host clock, the
percentile definition and ``sim_digest``."""

from __future__ import annotations

import hashlib
import json
import math
from time import perf_counter as host_clock  # repro: allow[DET01] host time is the measurand
from typing import Any

__all__ = ["digest", "host_clock", "percentile"]


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank *p*-th percentile of *values* and the count beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def digest(record: dict[str, Any]) -> str:
    """``sim_digest``: SHA-256 over a simulated record, floats exact."""
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()
