"""The end-to-end benchmark's ``sim_digest`` at seed 1, pinned.

``sim_digest`` hashes every simulated outcome of a perfbench run, kernel
entry counts included, so a host-time optimisation that claims to leave
the simulation unchanged must leave these three values unchanged.  The
workloads and the digest are read from ``perfbench/`` as they are; this
test only drives them (setup, then the drive phase, as ``measure.py``
does for one repetition).
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

SEED_1 = {
    "flash_crowd": "7a6466d5c029d9a9223635cd424848e946d202b8c30a4410ab2244afb15637ea",
    "portal_mix": "9e5fa42a24db97b93f8410997d1b317519b90d619808aafb209b9c3e7f2bd46b",
    "ingest": "3edacca3c8e4b7005974628c511f8efdd5ac5a8bd4a26883360846f5c1b0ffc1",
}


@pytest.fixture(scope="module")
def perfbench():
    # the benchmark's modules import each other as top-level modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        import summary
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS, summary.digest


@pytest.mark.parametrize("name", sorted(SEED_1))
def test_sim_digest_at_seed_1(perfbench, name):
    workloads, digest = perfbench
    work = workloads[name](1)
    work.setup()
    work.setup_events = work.engine.events_dispatched
    work.drive()
    record = work.sim_record(work.engine.events_dispatched - work.setup_events)
    assert work.check() == []
    assert digest(record) == SEED_1[name]
