"""Unit helpers and constants.

All sizes inside repro are plain integers in **bytes**, all durations plain
floats in **seconds**, all rates floats in **bytes/second** (or Hz for CPU).
These helpers exist so call sites read like the paper ("a 64 MiB block",
"a 1 Gb/s NIC") instead of raw powers of two.
"""

from __future__ import annotations

KB = 1000
MB = 1000**2
GB = 1000**3
TB = 1000**4

KiB = 1024
MiB = 1024**2
GiB = 1024**3
TiB = 1024**4

# Network rates are conventionally decimal bits/second.
Kbps = 1000 / 8.0
Mbps = 1000**2 / 8.0
Gbps = 1000**3 / 8.0

MHz = 1000.0**2
GHz = 1000.0**3

MS = 1e-3
US = 1e-6

MINUTE = 60.0
HOUR = 3600.0


def fmt_duration(seconds: float) -> str:
    """Human-readable duration: us/ms/s/min as appropriate."""
    if seconds < 0:
        return "-" + fmt_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.1f} min"
