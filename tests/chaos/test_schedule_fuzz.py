"""Schedule fuzzing of the real storms: reports must survive shuffles.

The determinism smoke tests prove a seeded run replays bit-identically
under FIFO tie-breaking; these prove the stronger property that no
*report* depends on the tie-breaking at all.  Each storm is re-run under
K=8 permuted schedules (plus the FIFO baseline) and its report signature
must come out bit-identical every time.

Signatures are over the *reports* (MTTR, recoveries, action logs,
convergence episodes), not raw event logs: same-timestamp log records
legitimately permute under a shuffled schedule, results must not.
"""

from __future__ import annotations

from repro.analysis import HistoryRecorder, check_history
from repro.chaos import ChaosMonkey, KillActiveNameNode, ReconcileStorm
from repro.hardware import Cluster
from repro.sim import fuzz_schedules
from repro.stack import build_video_cloud

#: shuffled schedules per storm (the PR-9 acceptance floor)
SHUFFLES = 8


def _chaos_storm(shuffle_seed: "int | None") -> dict:
    cluster = Cluster(6, seed=21)
    if shuffle_seed is not None:
        cluster.engine.enable_schedule_shuffle(shuffle_seed)
    monkey = ChaosMonkey(cluster)
    scenarios = monkey.random_scenarios(8, horizon=120.0)
    for s in scenarios:
        if s.kind == "host_crash":
            host = cluster.host(s.host)
            monkey.watch("hardware", s.host, lambda h=host: h.alive,
                         since=s.at)
    report = cluster.run(monkey.unleash(scenarios))
    cluster.run()
    return {
        "faults": [(f.time, f.kind, f.target, f.detail)
                   for f in report.faults],
        "recoveries": sorted((r.layer, r.target, r.injected_at,
                              r.recovered_at) for r in report.recoveries),
        "mttr": report.mttr_by_layer(),
        "end": cluster.engine.now,
    }


def _failover_storm(shuffle_seed: "int | None") -> dict:
    vc = build_video_cloud(8, seed=5, ha=True)
    if shuffle_seed is not None:
        vc.engine.enable_schedule_shuffle(shuffle_seed)
    engine = vc.engine
    recorder = HistoryRecorder(lambda: engine.now)
    client = vc.fs.client("node3")
    client.recorder = recorder
    acked: dict[str, bytes] = {}

    def traffic():
        for i in range(12):
            yield engine.timeout(8.0)
            payload = bytes([i % 251]) * 512
            yield from client.write_file(f"/fuzz/f{i}", payload)
            acked[f"/fuzz/f{i}"] = payload

    engine.process(traffic(), name="traffic")
    vc.chaos.unleash([KillActiveNameNode(at=30.0, recover_after=60.0)])
    vc.run(until=400.0)
    vc.stop_background()
    vc.run()
    history = check_history(recorder, final_keys=set(acked))
    # Op *latencies* are excluded on purpose: an RPC landing at the same
    # instant as the promotion legitimately takes the designed retry path
    # under one tie-break and not the other.  Everything client-visible
    # about the run -- op order, outcomes, values, the consistency
    # verdict, failover count and MTTR -- must still be bit-identical.
    ops = tuple((op.index, op.client, op.kind, op.key, op.outcome,
                 op.value, op.error) for op in recorder.ops)
    return {
        "failovers": vc.failover.failovers,
        "epoch": vc.ha.epoch,
        "acked": sorted(acked),
        "history_ok": history.ok,
        "violations": tuple((v.rule, v.key, v.detail) for v in
                            history.violations),
        "ops": ops,
        "mttr": vc.chaos.report.mttr_by_layer(),
        "end": engine.now,
    }


def _reconcile_storm(shuffle_seed: "int | None") -> dict:
    vc = build_video_cloud(8, seed=7, reconcile=True, autoscale=False)
    if shuffle_seed is not None:
        vc.engine.enable_schedule_shuffle(shuffle_seed)
    vc.run(until=60.0)
    storm = ReconcileStorm(crash="node2", isolated=("node5",), at=0.0,
                           heal_after=180.0)
    done = vc.chaos.unleash([storm])
    vc.run(done)
    vc.run(until=vc.engine.now + 600.0)
    rec = vc.reconciler
    sig = {
        "open_pools": rec.report.open_pools(),
        "actions": rec.actions.signature(),
        "convergence": rec.report.signature(),
        "mttr": vc.chaos.report.mttr_by_layer(),
        "end": vc.engine.now,
    }
    vc.stop_background()
    vc.cluster.run()
    return sig


def test_chaos_storm_report_is_shuffle_invariant():
    report = fuzz_schedules(_chaos_storm, shuffles=SHUFFLES, seed=3)
    assert report.ok, report.summary()


def test_failover_storm_report_is_shuffle_invariant():
    report = fuzz_schedules(_failover_storm, shuffles=SHUFFLES, seed=1)
    assert report.ok, report.summary()


def test_reconcile_storm_report_is_shuffle_invariant():
    report = fuzz_schedules(_reconcile_storm, shuffles=SHUFFLES, seed=1)
    assert report.ok, report.summary()


def test_chaos_storm_is_race_clean_under_the_sanitizer():
    """The dynamic sanitizer agrees: no unordered same-time access pairs."""
    cluster = Cluster(6, seed=21)
    san = cluster.engine.enable_sanitizer()
    monkey = ChaosMonkey(cluster)
    scenarios = monkey.random_scenarios(8, horizon=120.0)
    cluster.run(monkey.unleash(scenarios))
    cluster.run()
    cluster.engine.disable_sanitizer()
    assert san.ok, san.report()
