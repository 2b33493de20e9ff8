"""The measuring process: one workload, one seed, a fresh interpreter.

Untraced (``--trace 0``): one warm-up repetition, whose outputs are
checked, then timed repetitions until ``--seconds`` have passed (at least
three).  Each repetition builds and seeds a fresh stack (timed as
``setup_s``) and drives the workload (timed as ``wall_s``), both scaled to
the speed of a reference loop run before and after it; the peak RSS is
that of this process.  Traced (``--trace 1``): one repetition under the
per-layer ledger and cProfile (``ledger.py``).  Either way the last line of
standard output is one JSON object for ``run.py``.

    python3 perfbench/measure.py --workload portal_mix --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Generator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ledger import Ledger, layer_self_time  # noqa: E402
from summary import digest, host_clock, percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: timed repetitions per untraced run, at the least
MIN_REPS = 3
#: host seconds the reference loop is scaled to (about what it takes on a
#: 2-vCPU x86-64 VM), so normalised timings read close to raw seconds
REF_S = 0.035
#: where traced runs write their spans (listed in .gitignore)
SPAN_DIR = ROOT / "perfbench_out"


def _layers(work: Workload, ledger: Ledger,
            self_s: dict[str, float]) -> dict[str, Any]:
    """The per-layer counts and simulated latencies of one traced run."""
    spans = ledger.by_name()
    registry = work.vc.cluster.metrics

    def count(*names: str) -> int:
        return sum(len(spans.get(n, ())) for n in names)

    def total(family: str) -> float:
        return registry.family_total(family)

    def sim_durations(name: str) -> list[float]:
        return [s.sim_end - s.sim_start for s in spans.get(name, ())
                if s.sim_end is not None and s.ok]

    def pct(name: str, p: float, scale: float = 1.0) -> dict[str, Any]:
        values = sim_durations(name)
        if not values:
            return {"value": 0.0, "n": 0, "beyond": 0}
        value, beyond = percentile(values, p)
        return {"value": value * scale, "n": len(values), "beyond": beyond}

    def host_us(name: str) -> float:
        found = spans.get(name, ())
        return (1e6 * math.fsum(s.host_s for s in found) / len(found)
                if found else 0.0)

    histogram_samples = sum(
        len(child.samples) for family in registry.families()
        if family.kind == "histogram" for child in family.children())
    transfers = count("hardware.transfer")
    deploys = sim_durations("one.deploy")
    web = spans.get("web.request", ())
    out: dict[str, Any] = {f"{layer}.self_s": s for layer, s in self_s.items()}
    out.update({
        "sim.events": work.engine.events_dispatched,
        "sim.processes": sum(ledger.processes.values()),
        "hardware.transfers": transfers,
        "hardware.transfer_us": host_us("hardware.transfer"),
        "hardware.peak_flows": ledger.peak_flows,
        "hardware.timer_procs_per_transfer":
            ledger.processes["net-timer"] / transfers if transfers else 0.0,
        "hardware.bytes": work.vc.cluster.network.bytes_delivered,
        "hardware.disk_ops": count("hardware.disk_read", "hardware.disk_write"),
        "hardware.compute_calls": count("hardware.compute"),
        "hdfs.reads": count("hdfs.read"),
        "hdfs.writes": count("hdfs.write"),
        "hdfs.write_p50_s": pct("hdfs.write", 50),
        "hdfs.read_p99_ms": pct("hdfs.read", 99, 1e3),
        "hdfs.bytes_written": total("hdfs_bytes_written_total"),
        "hdfs.pipeline_recoveries": total("hdfs_pipeline_recoveries_total"),
        "fusehdfs.ops": total("fuse_ops_total"),
        "fusehdfs.write_p50_s": pct("fusehdfs.write", 50),
        "video.stream_ranges": count("video.stream_range"),
        "video.sessions": count("video.session"),
        "video.transcodes": count("video.transcode"),
        "video.transcode_p50_s": pct("video.transcode", 50),
        "video.segments": total("transcode_segments_total"),
        "video.transcode_failovers": total("transcode_failovers_total"),
        "mapreduce.jobs": count("mapreduce.job"),
        "mapreduce.job_p50_s": pct("mapreduce.job", 50),
        "mapreduce.task_failures": total("mapreduce_task_failures_total"),
        "search.queries": count("search.query"),
        "search.query_us": host_us("search.query"),
        "search.refreshes": count("search.refresh"),
        "search.refresh_p50_s": pct("search.refresh", 50),
        "web.requests": len(web),
        "web.request_host_us": host_us("web.request"),
        "web.errors": sum(1 for s in web if not s.ok),
        "web.bytes_sent": total("web_bytes_sent_total"),
        "obs.spans": len(work.vc.cluster.tracer),
        "obs.histogram_samples": histogram_samples,
        "one.deploy_s": statistics.median(deploys) if deploys else 0.0,
    })
    return out


def _reference() -> float:
    """Host seconds of a fixed loop with the simulator's instruction mix:
    heap pushes and pops, generator resumes, dict and set updates."""
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    seen: set[int] = set()

    def coroutine() -> Generator[float, float, None]:
        x = 0.0
        while True:
            x = yield x * 1.0000001 + 1.0

    resume = coroutine()
    next(resume)
    t0 = host_clock()
    for i in range(40_000):
        heapq.heappush(heap, (((i * 7919) % 1009) / 7.0, i))
        table[i & 511] = resume.send(float(i))
        seen.add(i & 1023)
        if len(heap) > 64:
            heapq.heappop(heap)
    return host_clock() - t0


def _speed() -> float:
    """The reference loop's current time: the fastest of three."""
    return min(_reference() for _ in range(3))


def _setup(name: str, seed: int) -> tuple[Workload, float]:
    t0 = host_clock()
    work = WORKLOADS[name](seed)
    work.setup()
    setup_s = host_clock() - t0
    work.setup_events = work.engine.events_dispatched
    return work, setup_s


def _drive(work: Workload) -> tuple[float, dict[str, Any]]:
    t0 = host_clock()
    work.drive()
    wall_s = host_clock() - t0
    return wall_s, work.sim_record(
        work.engine.events_dispatched - work.setup_events)


def measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced: one warm-up repetition, then repetitions for *seconds*.

    The host's speed drifts by tens of percent over minutes, so each
    repetition is bracketed by the reference loop and its timings are
    scaled to a host on which that loop takes ``REF_S``."""
    work, _ = _setup(name, seed)
    _, record = _drive(work)
    checks = work.check()
    digests = [digest(record)]
    setups: list[float] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    start = host_clock()
    while len(walls) < MIN_REPS or host_clock() - start < seconds:
        del work
        gc.collect()
        before = _speed()
        work, setup_s = _setup(name, seed)
        wall_s, rep_record = _drive(work)
        scale = REF_S / ((before + _speed()) / 2)
        setups.append(setup_s * scale)
        walls.append(wall_s * scale)
        raw_walls.append(wall_s)
        digests.append(digest(rep_record))
        if digests[-1] != digests[0]:
            # equal digests mean equal outputs; check the ones that differ
            checks.extend(c for c in work.check() if c not in checks)
    return {
        "setup_s": setups,
        "wall_s": walls,
        "raw_wall_s": raw_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": record,
        "digests": digests,
        "checks": checks,
    }


def trace(name: str, seed: int) -> dict[str, Any]:
    """One repetition under the ledger and cProfile."""
    before = _speed()
    ledger = Ledger().install()
    setup_prof = cProfile.Profile()
    wall_prof = cProfile.Profile()
    setup_prof.enable()
    work, _ = _setup(name, seed)
    setup_prof.disable()
    wall_prof.enable()
    wall_s, record = _drive(work)
    wall_prof.disable()
    ledger.uninstall()
    scale = REF_S / ((before + _speed()) / 2)
    checks = work.check()
    seen = ledger.completed_transfer_bytes()
    delivered = work.vc.cluster.network.bytes_delivered
    if not math.isclose(seen, delivered, rel_tol=1e-9):
        checks.append(f"Network.bytes_delivered {delivered!r} != {seen!r} "
                      f"bytes of transfers the trace saw complete")
    setup_self = layer_self_time(setup_prof)
    wall_self = layer_self_time(wall_prof)
    self_s = {k: setup_self[k] + wall_self[k] for k in setup_self}
    ledger.write(SPAN_DIR / f"spans-{name}-seed{seed}.jsonl")
    return {
        "wall_s": wall_s * scale,
        "digests": [digest(record)],
        "checks": checks,
        "layers": _layers(work, ledger, self_s),
        "wall_share": wall_self,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = (trace(args.workload, args.seed) if args.trace
              else measure(args.workload, args.seed, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
