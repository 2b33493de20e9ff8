"""E-failover: NameNode failover MTTR, goodput dip, checker verdict.

Drives seeded client traffic through the HA pair while chaos kills (or
partitions away) the active NameNode.  The FailoverController detects the
outage, fences the old epoch through the journal quorum, and promotes the
standby; meanwhile every client operation is recorded and fed to the
:mod:`repro.analysis.history` checker.  The headline numbers are the
failover MTTR, the longest client stall (the goodput dip: writes queue
behind retries until the new active answers), and a checker verdict of
zero acknowledged-write loss and zero stale reads.  A same-seed re-run
must reproduce the history signature bit-for-bit.
"""

from repro import build_video_cloud
from repro.analysis import HistoryRecorder, check_history
from repro.bench import KernelRate
from repro.chaos import KillActiveNameNode, PartitionActiveNameNode

from _util import BenchResult, publish

SEED = 11
UNTIL = 400.0
WRITES = 32
WRITE_GAP = 2.0  # dense enough that writes land inside the outage window


def run_failover(scenario, *, seed=SEED, rate=None):
    """One traffic run under *scenario*; returns deterministic metrics."""
    vc = build_video_cloud(8, seed=seed, ha=True)
    engine = vc.engine
    recorder = HistoryRecorder(lambda: engine.now)
    client = vc.fs.client("node3")
    client.recorder = recorder
    acked = {}

    def traffic():
        for i in range(WRITES):
            yield engine.timeout(WRITE_GAP)
            payload = bytes([i % 251]) * 512
            yield from client.write_file(f"/bench/f{i}", payload)
            acked[f"/bench/f{i}"] = payload
            if i % 3 == 2:
                yield from client.read_file(f"/bench/f{i - 1}")

    engine.process(traffic(), name="traffic")
    done = vc.chaos.unleash([scenario])
    measure = rate.measure(engine) if rate is not None else None
    if measure is not None:
        with measure:
            vc.run(until=UNTIL)
    else:
        vc.run(until=UNTIL)
    assert done.is_alive is False
    vc.stop_background()
    vc.run()

    report = check_history(recorder, final_keys=set(acked))
    assert report.ok, report.violations
    assert vc.failover.failovers >= 1
    assert len(recorder.acked_writes()) == WRITES
    for path in acked:
        assert vc.fs.namenode.exists(path)
    stall = max(op.completed - op.invoked
                for op in recorder.ops if op.completed is not None)
    return {
        "mttr_s": round(vc.failover.last_mttr, 3),
        "failovers": vc.failover.failovers,
        "epoch": vc.ha.epoch,
        "acked_writes": report.acked_writes,
        "acked_reads": report.acked_reads,
        "failed_ops": report.failed_ops,
        "max_client_stall_s": round(stall, 3),
        "violations": len(report.violations),
        "signature": recorder.signature(),
    }


def test_efailover_mttr_and_consistency(benchmark, capsys):
    rate = KernelRate()
    scenarios = {
        "kill_active": KillActiveNameNode(at=30.0, recover_after=60.0),
        "partition_active": PartitionActiveNameNode(at=30.0, heal_after=60.0),
    }
    results = {name: run_failover(s, rate=rate)
               for name, s in scenarios.items()}

    # bit-identical replay: same seed, same scenario, same history
    again = run_failover(KillActiveNameNode(at=30.0, recover_after=60.0))
    assert again["signature"] == results["kill_active"]["signature"]

    rows = []
    for name, r in results.items():
        # detection is streak-driven (2 missed checks at 1 s) plus the
        # fenced promote RPC; anything past 30 s means detection broke
        assert 1.0 <= r["mttr_s"] <= 30.0, (name, r)
        # the dip is bounded: clients stall across the failover window,
        # never longer than detection + promotion + one retry backoff
        assert r["max_client_stall_s"] <= r["mttr_s"] + 30.0, (name, r)
        assert r["violations"] == 0
        rows.append([name, f"{r['mttr_s']:.2f}",
                     f"{r['max_client_stall_s']:.2f}",
                     r["acked_writes"], r["violations"]])

    result = BenchResult(
        "e_failover",
        params={"n_hosts": 8, "writes": WRITES, "write_gap_s": WRITE_GAP,
                "horizon_s": UNTIL},
        metrics={name: {k: v for k, v in r.items() if k != "signature"}
                 for name, r in results.items()},
        seed=SEED,
        events_per_sec=rate.events_per_sec,
    ).table("E-failover: active-NameNode loss under client traffic",
            ["scenario", "MTTR s", "max stall s", "acked writes",
             "violations"], rows)
    publish(capsys, result)

    benchmark.pedantic(
        run_failover, args=(KillActiveNameNode(at=30.0, recover_after=60.0),),
        rounds=2, iterations=1)
