"""Workload generation + load driving for the benchmark harness."""

from .driver import PortalDriver, WorkloadReport
from .harness import BenchResult, KernelRate, emit
from .workloads import (
    CatalogEntry,
    LatencyStats,
    TrafficEvent,
    TrafficMix,
    TrafficModel,
    VideoCatalog,
)

__all__ = [
    "BenchResult",
    "CatalogEntry",
    "KernelRate",
    "LatencyStats",
    "PortalDriver",
    "TrafficEvent",
    "TrafficMix",
    "TrafficModel",
    "VideoCatalog",
    "WorkloadReport",
    "emit",
]
