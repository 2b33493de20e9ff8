"""Snapshot machine-readable bench results into committed JSON files.

Runs the smoke bench suites and harvests their ``### BENCH_JSON <tag>``
blocks (emitted by :func:`repro.bench.harness.emit`) into
``BENCH_<suite>.json`` at the repository root, one file per suite, so
regression tooling can diff the simulated numbers across commits without
re-running the benches.

Each block that reports a wall-clock ``events_per_sec`` also carries the
previously committed figure as ``prev_events_per_sec`` -- the persisted
perf trajectory: every refresh records before/after kernel throughput.

Usage::

    python benchmarks/snapshot.py                  # all suites
    python benchmarks/snapshot.py reconcile        # just one
    python benchmarks/snapshot.py kernel --check   # CI regression gate

``--check`` re-runs the suite and compares against the committed file
instead of rewriting it.  For the kernel suite the gated number is the
*speedup* (fast path vs the frozen in-bench baseline, both measured on
the same machine in the same run), which stays comparable across
machines in a way raw events/sec never is: the gate fails when the
fresh speedup drops below 80% of the committed one.  Every suite, kernel
included, must also match the committed ``analyzer`` header (analyzer
version and rule count) exactly.

The script is plain stdlib on purpose: it shells out to pytest exactly
the way CI does, so a snapshot is always produced by the same command
path whose output it archives.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: suites with machine-readable blocks worth archiving at the root
SUITES = {
    "kernel": "bench_kernel.py",
    "reconcile": "bench_reconcile.py",
    "chaos": "bench_chaos.py",
    "overload": "bench_overload.py",
    "failover": "bench_failover.py",
    "analysis": "bench_analysis.py",
    "tail": "bench_tail.py",
}

#: fresh speedup must be at least this fraction of the committed one
CHECK_TOLERANCE = 0.8

#: a failed kernel check re-measures this many times before failing for
#: real -- one slow scheduling window on a shared runner is not a
#: regression, the same ratio three times in a row is
CHECK_RETRIES = 2

_LINE = re.compile(r"^### BENCH_JSON (\S+) (.+)$")


def collect(bench_file: str) -> dict:
    """Run one bench file and return its BENCH_JSON blocks by tag."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest",
           str(ROOT / "benchmarks" / bench_file),
           "--benchmark-only", "-q", "-s", "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=env, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-2000:])
        raise SystemExit(f"{bench_file} failed (exit {proc.returncode})")
    blocks = {}
    for line in proc.stdout.splitlines():
        m = _LINE.match(line.strip())
        if m:
            blocks[m.group(1)] = json.loads(m.group(2))
    if not blocks:
        raise SystemExit(f"{bench_file} emitted no BENCH_JSON blocks")
    return blocks


def carry_trajectory(blocks: dict, committed: dict) -> None:
    """Copy each committed ``events_per_sec`` into ``prev_events_per_sec``."""
    for tag, block in blocks.items():
        if "events_per_sec" not in block:
            continue
        prior = committed.get(tag, {})
        prev = prior.get("events_per_sec")
        if prev is not None:
            block["prev_events_per_sec"] = prev


def check(suite: str, blocks: dict, committed: dict) -> list[str]:
    """Regression check against the committed snapshot; returns failures."""
    failures = []
    # the analyzer header names the rule set the tree passed when the
    # snapshot was taken; it carries no metrics, so compare it whole
    if blocks.get("analyzer") != committed.get("analyzer"):
        failures.append(f"{suite}/analyzer: {blocks.get('analyzer')} differs "
                        f"from committed {committed.get('analyzer')}")
    if suite == "kernel":
        fresh = blocks.get("kernel", {}).get("metrics", {}).get("speedup")
        baseline = committed.get("kernel", {}).get("metrics", {}).get("speedup")
        if fresh is None or baseline is None:
            failures.append("kernel: no speedup metric to compare")
        elif fresh < baseline * CHECK_TOLERANCE:
            failures.append(
                f"kernel: speedup {fresh:.2f}x fell below "
                f"{CHECK_TOLERANCE:.0%} of committed {baseline:.2f}x")
        else:
            print(f"kernel: speedup {fresh:.2f}x vs committed "
                  f"{baseline:.2f}x -- ok")
    else:
        # simulated outputs are deterministic: a changed metric is a
        # behaviour change that belongs in a refreshed snapshot commit
        for tag, block in blocks.items():
            if tag == "analyzer":
                continue
            prior = committed.get(tag)
            if prior is None:
                failures.append(f"{suite}/{tag}: not in committed snapshot")
                continue
            if block.get("metrics") != prior.get("metrics"):
                failures.append(f"{suite}/{tag}: metrics drifted from "
                                "committed snapshot")
    return failures


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="*", metavar="suite",
                        help=f"suites to snapshot: {', '.join(SUITES)} "
                             "(default: all)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed snapshot "
                             "instead of rewriting it")
    args = parser.parse_args(argv)
    unknown = [s for s in args.suites if s not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(SUITES)})")
    failures: list[str] = []
    for suite in args.suites or SUITES:
        blocks = collect(SUITES[suite])
        out = ROOT / f"BENCH_{suite}.json"
        committed = {}
        if out.exists():
            committed = json.loads(out.read_text())
        if args.check:
            suite_failures = check(suite, blocks, committed)
            for _ in range(CHECK_RETRIES if suite == "kernel" else 0):
                if not suite_failures:
                    break
                print(f"{suite}: retrying after {suite_failures[0]}")
                suite_failures = check(suite, collect(SUITES[suite]),
                                       committed)
            failures += suite_failures
            continue
        carry_trajectory(blocks, committed)
        out.write_text(json.dumps(blocks, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out.relative_to(ROOT)} ({len(blocks)} blocks)")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
