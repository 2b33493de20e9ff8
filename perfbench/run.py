"""End-to-end benchmark of the simulated video cloud.

    python3 perfbench/run.py --workload portal_mix --seed 1 --seconds 30 --trace 0

Runs one workload (``portal_mix``, ``flash_crowd`` or ``ingest``; see
``workloads.py``) in a fresh process (``measure.py``): a warm-up repetition
whose outputs are checked, then timed repetitions for ``--seconds``.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics declared in ``BENCHMARK.json``: host ``wall_s`` of the measured
phase and ``setup_s`` (medians over repetitions) and ``peak_rss_mb``.  With
``--trace 1`` another fresh process runs one repetition under the
per-layer ledger (``ledger.py``) and the last line carries the per-layer
metrics instead.  The lines above it print every end-to-end metric, the
simulated ones included, with its unit, sample count and the count beyond
each percentile, then ``sim_digest`` and whether every repetition agreed
on it; a traced run adds its per-layer volume counts and ``layer_digest``.

A failed output check fails the run (exit 1, ``"correct": false``), and
so do repetitions of one seed, traced or not, that disagree on
``sim_digest``.  The simulated metrics are unvalidated against hardware:
the paper reports only qualitative results, so there is no reference to
state an error against.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from summary import digest, host_clock, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
#: the declaration of every metric's name and unit
DECLARATION = ROOT / "BENCHMARK.json"
#: a measuring process that takes longer than this is a hang
TIMEOUT_S = 150.0
#: the untraced process measures for at most this long
MAX_SECONDS = 60.0
UNVALIDATED = ("simulated metrics are unvalidated against hardware: the paper "
               "gives only qualitative results, so no error figure is stated")

#: the workloads and the simulated end-to-end metrics printed for each
SIM_METRICS = {
    "portal_mix": ("req", "startup", "rebuffer"),
    "flash_crowd": ("startup", "rebuffer"),
    "ingest": ("upload",),
}


#: per-layer metrics measured on the host clock (with the ``.self_s`` ones)
HOST_LAYER_METRICS = frozenset({
    "hardware.transfer_us", "search.query_us", "web.request_host_us",
    "sim.host_us_per_event", "trace.overhead"})
#: units of the per-layer volume counts, which BENCHMARK.json does not list
LAYER_UNITS = {"hardware.bytes": "B", "hdfs.bytes_written": "B",
               "web.bytes_sent": "B"}


class MeasureFailed(Exception):
    """The measuring process crashed, hung or printed no result."""


def _measure(workload: str, seed: int, seconds: float,
             trace: int) -> dict[str, Any]:
    cmd = [sys.executable, str(MEASURE), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise MeasureFailed(f"measuring process exceeded {TIMEOUT_S} s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise MeasureFailed(f"measuring process exited {proc.returncode}:\n"
                            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _sim_lines(workload: str, sim: dict[str, Any]) -> list[str]:
    """The simulated end-to-end metrics, one printed line each."""
    lines = []
    samples = sim["samples"]
    specs = {"req": (("req_p50_ms", 50), ("req_p99_ms", 99)),
             "startup": (("startup_p50_ms", 50), ("startup_p90_ms", 90)),
             "upload": (("upload_p50_s", 50), ("upload_p90_s", 90))}
    for kind in SIM_METRICS[workload]:
        if kind == "rebuffer":
            play = sim["playback"]
            ratio = play["stall_s"] / play["watched_s"]
            lines.append(f"  {'rebuffer_ratio':<16} {ratio!r} stall s / "
                         f"watched s (sim, {play['sessions']} sessions)")
            continue
        values = samples.get(kind, [])
        scale, unit = (1.0, "s") if kind == "upload" else (1e3, "ms")
        for name, p in specs[kind]:
            if not values:
                lines.append(f"  {name:<16} n/a {unit} (sim, n=0)")
                continue
            value, beyond = percentile(values, p)
            thin = "" if beyond >= 10 else "  [fewer than 10 beyond]"
            lines.append(f"  {name:<16} {value * scale!r} {unit} (sim, "
                         f"n={len(values)}, {beyond} beyond){thin}")
    return lines


def _failures(sim: dict[str, Any]) -> tuple[int, int, str]:
    ops = sim["ops"].values()
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    refused = sum(o["refused"] for o in ops)
    raised = sum(o["raised"] for o in ops)
    detail = f"{failed} failed, {refused} refused, {raised} raised"
    return attempted, failed + refused + raised, detail


def _layer_line(name: str, entry: Any, unit: str) -> Any:
    """Print one per-layer metric; returns its value."""
    extra = ""
    if isinstance(entry, dict):
        extra = f" (n={entry['n']}, {entry['beyond']} beyond)"
        entry = entry["value"]
    print(f"    {name:<34} {entry!r} {unit}{extra}")
    return entry


def _simulated(layers: dict[str, Any]) -> dict[str, Any]:
    """The per-layer metrics that a seed fixes: all but host timings."""
    return {k: v for k, v in layers.items()
            if k not in HOST_LAYER_METRICS and not k.endswith(".self_s")}


def run(args: argparse.Namespace) -> int:
    start = host_clock()
    declared = json.loads(DECLARATION.read_text())
    untraced = _measure(args.workload, args.seed,
                        min(args.seconds, MAX_SECONDS), 0)
    traced = _measure(args.workload, args.seed, 0, 1) if args.trace else None

    walls, setups = untraced["wall_s"], untraced["setup_s"]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    peak_rss_mb = untraced["peak_rss_mb"]
    sim = untraced["sim"]
    digests = untraced["digests"] + (traced["digests"] if traced else [])
    problems = list(untraced["checks"])
    if traced is not None:
        problems.extend(c for c in traced["checks"] if c not in problems)
    attempted, failed, detail = _failures(sim)

    out = print
    out(f"{args.workload} seed={args.seed}: warm-up + {len(walls)} timed "
        f"repetitions{' + 1 traced' if traced else ''} "
        f"in {host_clock() - start:.1f} s")
    raw = untraced["raw_wall_s"]
    out(f"  {'wall_s':<16} {wall_s!r} s (host at reference speed, median of "
        f"{len(walls)}; min {min(walls):.4f}, max {max(walls):.4f}; raw "
        f"median {statistics.median(raw):.4f} s)")
    out(f"  {'setup_s':<16} {setup_s!r} s (host at reference speed, median of "
        f"{len(setups)}; "
        f"min {min(setups):.4f}, max {max(setups):.4f})")
    out(f"  {'peak_rss_mb':<16} {peak_rss_mb!r} MiB (host, one process)")
    for line in _sim_lines(args.workload, sim):
        out(line)
    out(f"  {'failed_frac':<16} {failed / attempted!r} ratio ({failed} of "
        f"{attempted} operations: {detail})")
    for error in sim["errors"][:10]:
        out(f"    {error}")
    if args.workload == "ingest":
        thirds = ", ".join(f"{v!r}" for v in sim["upload_thirds_p50_s"])
        out(f"  upload_p50_s by arrival third: {thirds} s (sim; a backlog "
            f"would make it grow)")
    out(f"  {'sim_digest':<16} {digests[0]}")
    if len(set(digests)) == 1:
        out(f"  determinism      ok: {len(digests)} repetitions"
            f"{', traced included,' if traced else ''} agree")
    else:
        problems.append(
            f"sim_digest differs between repetitions of one seed: "
            f"{len(set(digests))} distinct over {len(digests)} "
            f"({', '.join(d[:12] for d in digests)})")
    out(f"  note: {UNVALIDATED}")

    metrics: dict[str, dict[str, Any]]
    if traced is None:
        host = {"wall_s": wall_s, "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": host[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    else:
        layers = dict(traced["layers"])
        layers["sim.host_us_per_event"] = (
            1e6 * wall_s / sim["engine"]["events"])
        layers["trace.overhead"] = traced["wall_s"] / wall_s
        metrics = {}
        out("  per-layer (traced run):")
        for metric in declared["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value = _layer_line(name, layers[name], unit)
            metrics[name] = {"value": value, "unit": unit}
        # the volume of work the workload asked for: not better when lower,
        # but bit-identical for a pure speed-up, so digested instead
        out("  per-layer volume (traced run, must not change):")
        for name in sorted(set(layers) - set(metrics)):
            if name not in HOST_LAYER_METRICS:
                _layer_line(name, layers[name], LAYER_UNITS.get(name, "count"))
        out(f"  {'layer_digest':<16} {digest(_simulated(layers))}")
        share = traced["wall_share"]
        total = sum(share.values())
        ranked = sorted(share.items(), key=lambda kv: -kv[1])
        out("  measured-phase self-time share: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in ranked if v > 0))

    if problems:
        out("  checks FAILED:")
        for problem in problems:
            out(f"    {problem}")
    else:
        out("  checks ok")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulated video cloud.")
    parser.add_argument("--workload", required=True, choices=tuple(SIM_METRICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        return run(args)
    except MeasureFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
