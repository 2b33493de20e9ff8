"""E-tail: gray-failure tolerance for video playback reads.

A severe seeded disk stall hits one of the three replicas backing a
video file while a paced playback workload keeps reading it.  Two arms
share the seed: the *unhedged* arm rides the stall out (its p99 blows
past 5x the calm baseline), the *hedged* arm detects the gray node via
Karn-gated phi accrual, fires suspicion-primed backup reads and routes
around the stalled disk through the lost-race breaker penalty -- its
p99 must stay within 2x calm.  A second scenario runs the full
reconciled stack and checks the quarantine roundtrip: the stalled
DataNode is cordoned inside the storm window, never declared dead, and
reinstated after serving probation.
"""

import math

import pytest

from repro.bench import KernelRate
from repro.chaos import ChaosMonkey, DiskStall
from repro.common.units import MiB
from repro.hardware import Cluster
from repro.hdfs import Hdfs
from repro.stack import build_video_cloud, enable_gray_tolerance

from _util import BenchResult, publish

SEED = 7
FILE_SIZE = 16 * MiB
CALM_READS = 30
STORM_READS = 300
#: playback cadence: one segment read every 0.4 s (2.5 segments/s)
PACE = 0.4
SETTLE = 30.0

#: acceptance gates from the experiment definition
HEDGED_CEILING = 2.0
UNHEDGED_FLOOR = 5.0


def percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, math.ceil(q * len(xs)) - 1)]


def playback_arm(*, hedged, seed=SEED, kernel_rate=None):
    """One A/B arm: calm playback, then the same playback under a stall."""
    cluster = Cluster(6, seed=seed)
    engine = cluster.engine
    fs = Hdfs(cluster, replication=3)
    fs.enable_gray_detection()
    if hedged:
        fs.enable_hedged_reads()
    client = fs.client("node0")
    cluster.run(engine.process(client.write_synthetic("/video", FILE_SIZE)))
    fs.start()
    engine.run(until=engine.timeout(SETTLE))

    def read_paced(n, out):
        def _loop():
            for _ in range(n):
                t0 = engine.now
                yield from client.read_file("/video")
                out.append(engine.now - t0)
                yield engine.timeout(PACE)
        cluster.run(engine.process(_loop()))

    calm: list[float] = []
    storm: list[float] = []
    read_paced(CALM_READS, calm)

    block_id = fs.namenode.get_file("/video").blocks[0].block_id
    victim = sorted(fs.namenode.locations(block_id))[0]
    monkey = ChaosMonkey(cluster)
    monkey.unleash([DiskStall(
        host=victim, at=0.0, duration=100000.0, severity="severe")])
    if kernel_rate is not None:
        with kernel_rate.measure(engine):
            read_paced(STORM_READS, storm)
    else:
        read_paced(STORM_READS, storm)

    dead = sorted(fs.namenode.dead_datanodes)
    budget = fs.hedge.budget if hedged else None
    fs.stop()
    cluster.run()
    return {
        "calm_p99": percentile(calm, 0.99),
        "storm_p50": percentile(storm, 0.50),
        "storm_p99": percentile(storm, 0.99),
        "storm_max": max(storm),
        "victim": victim,
        "dead": dead,
        "budget": budget,
    }


def test_e_tail_hedged_playback_cuts_the_storm_p99(benchmark, capsys):
    kernel_rate = KernelRate()
    hedged = playback_arm(hedged=True, kernel_rate=kernel_rate)
    unhedged = playback_arm(hedged=False)

    # same seed, same cluster, same workload: the calm baselines agree
    assert hedged["calm_p99"] == unhedged["calm_p99"]
    calm = hedged["calm_p99"]

    # the acceptance gates: hedging holds playback p99 inside 2x calm
    # while the unhedged arm blows past 5x riding out the stall
    hedged_ratio = hedged["storm_p99"] / calm
    unhedged_ratio = unhedged["storm_p99"] / calm
    assert hedged_ratio <= HEDGED_CEILING, (hedged_ratio, hedged)
    assert unhedged_ratio >= UNHEDGED_FLOOR, (unhedged_ratio, unhedged)

    # slowness never reads as death: the raw-liveness bank keeps the
    # stalled-but-beating node out of the dead list in both arms
    assert hedged["dead"] == [] and unhedged["dead"] == []

    # hedges fired and stayed inside the token budget
    budget = hedged["budget"]
    assert budget.spent >= 1
    assert budget.spent <= budget.ratio * budget.earned + budget.burst

    rows = [
        ["unhedged", f"{calm * 1e3:.1f}",
         f"{unhedged['storm_p99'] * 1e3:.1f}", f"{unhedged_ratio:.2f}x"],
        ["hedged", f"{calm * 1e3:.1f}",
         f"{hedged['storm_p99'] * 1e3:.1f}", f"{hedged_ratio:.2f}x"],
    ]
    publish(capsys, BenchResult(
        "e_tail",
        params={"file_mib": FILE_SIZE // MiB, "calm_reads": CALM_READS,
                "storm_reads": STORM_READS, "pace_s": PACE,
                "severity": "severe"},
        metrics={
            "calm_p99_ms": round(calm * 1e3, 3),
            "hedged_storm_p99_ms": round(hedged["storm_p99"] * 1e3, 3),
            "hedged_storm_max_ms": round(hedged["storm_max"] * 1e3, 3),
            "unhedged_storm_p99_ms": round(unhedged["storm_p99"] * 1e3, 3),
            "hedged_ratio": round(hedged_ratio, 3),
            "unhedged_ratio": round(unhedged_ratio, 3),
            "hedges_fired": budget.spent,
            "hedges_denied": budget.denied,
            "dead_datanodes": 0,
        },
        seed=SEED,
        events_per_sec=kernel_rate.events_per_sec,
    ).table("E-tail: playback p99 under a severe disk stall (1 of 3 replicas)",
            ["arm", "calm p99 ms", "storm p99 ms", "ratio"], rows))

    def kernel():
        out = playback_arm(hedged=True)
        assert out["storm_p99"] <= HEDGED_CEILING * out["calm_p99"]

    benchmark.pedantic(kernel, rounds=2, iterations=1)


def test_e_tail_quarantine_roundtrip(benchmark, capsys):
    """Full stack: cordoned inside the storm window, reinstated after."""
    vc = build_video_cloud(8, seed=11, reconcile=True)
    vc.run(until=60.0)
    rec = vc.reconciler
    assert rec.report.open_pools() == []

    enable_gray_tolerance(vc)
    vc.run(until=120.0)                  # settle detectors + trackers

    victim = sorted(vc.fs.datanodes)[0]
    # `at` is relative to unleash time (t=120): the storm runs t=125..165
    vc.run(vc.chaos.unleash([
        DiskStall(host=victim, at=5.0, duration=40.0, severity="severe"),
    ]))
    vc.run(until=260.0)

    assert victim not in vc.fs.namenode.dead_datanodes
    quarantines = [a for a in rec.actions.actions
                   if a.kind == "quarantine" and a.member == victim]
    reinstates = [a for a in rec.actions.actions
                  if a.kind == "reinstate" and a.member == victim]
    assert quarantines and 125.0 <= quarantines[0].time <= 165.0
    assert reinstates and reinstates[0].time > 165.0
    assert vc.cloud.host_record(victim).cordoned is False
    assert not any(victim in v for v in rec.quarantined().values())

    vc.stop_background()
    vc.cluster.run()

    publish(capsys, BenchResult(
        "e_tail_quarantine",
        params={"hosts": 8, "storm": [125.0, 165.0], "probation_s": 20.0,
                "severity": "severe"},
        metrics={
            "quarantine_at_s": round(quarantines[0].time, 3),
            "reinstate_at_s": round(reinstates[0].time, 3),
            "victim_declared_dead": False,
            "still_quarantined": False,
        },
        seed=11,
    ).table("E-tail: slow-node quarantine roundtrip",
            ["victim", "cordoned at", "reinstated at"],
            [[victim, f"{quarantines[0].time:.1f}s",
              f"{reinstates[0].time:.1f}s"]]))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e_tail_storm_is_seed_deterministic(benchmark, capsys):
    def signature(seed):
        out = playback_arm(hedged=True, seed=seed)
        return (out["calm_p99"], out["storm_p99"], out["storm_max"],
                out["victim"], out["budget"].spent, out["budget"].denied)

    a = signature(SEED)
    b = signature(SEED)
    assert a == b                       # bit-identical replay
    assert signature(SEED + 1) != a     # the seed actually matters

    publish(capsys, BenchResult(
        "e_tail_determinism",
        params={"storm_reads": STORM_READS},
        metrics={"identical": a == b,
                 "hedges_fired": a[4]},
        seed=SEED,
    ).table("E-tail: the storm replays bit-identically from the seed (7)",
            ["victim", "storm p99 ms", "hedges"],
            [[a[3], f"{a[1] * 1e3:.1f}", a[4]]]))
    benchmark.pedantic(lambda: signature(SEED), rounds=1, iterations=1)
