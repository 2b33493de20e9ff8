"""E-reconcile: closed-loop self-healing under compound chaos.

A :class:`~repro.chaos.scenarios.ReconcileStorm` overlaps a host crash, a
network partition and two upload-heavy overload bursts on the reconciled
stack.  The control plane must converge the fleet back onto its
:class:`~repro.reconcile.FleetSpec` with zero manual calls: dead members
replaced, pools autoscaled on admission pressure, and -- exercised after
the storm -- a regressing rolling upgrade rolled back.  Reported numbers
are the reconciler's own convergence-time statistics (MTTR for the
control plane) plus the action log census.
"""

import pytest

from repro.bench import KernelRate, PortalDriver, VideoCatalog
from repro.chaos import ReconcileStorm
from repro.stack import build_video_cloud

from _util import BenchResult, publish

#: upload-heavy burst mix: the storm must saturate the admission tier
MIX = (("playback", 0.5), ("search", 0.2), ("upload", 0.3))
STORM_RATE = 8.0
SETTLE = 60.0
TAIL = 400.0


def build(seed=7):
    vc = build_video_cloud(8, seed=seed, reconcile=True)
    driver = PortalDriver(vc.portal)
    catalog = VideoCatalog(4, seed=2, mean_duration=20)
    vc.run(vc.engine.process(driver.seed(catalog)))
    counter = {"n": 0}

    def upload():
        counter["n"] += 1
        return vc.portal.request(
            "POST", "/upload", session=driver._session,
            params={"title": f"storm-{counter['n']}", "description": "d",
                    "tags": "storm", "media": catalog.entries[0].media})

    vc.chaos.request_factories["upload"] = upload
    return vc


def run_storm(vc, *, tail=TAIL, kernel_rate=None):
    vc.run(until=vc.engine.now + SETTLE)
    storm = ReconcileStorm(crash="node2", isolated=("node5",), at=0.0,
                           storm_rate=STORM_RATE, storm_mix=MIX,
                           heal_after=180.0)
    done = vc.chaos.unleash([storm])
    if kernel_rate is not None:
        with kernel_rate.measure(vc.engine):
            vc.run(done)
            vc.run(until=vc.engine.now + tail)
    else:
        vc.run(done)
        vc.run(until=vc.engine.now + tail)
    return vc.reconciler


def exercise_upgrades(vc):
    """A regressing upgrade (surge host dies) then a healthy one."""
    rec = vc.reconciler
    rec.apply(rec.spec.with_version("web", "v2"))
    for _ in range(40):
        vc.run(until=vc.engine.now + rec.period)
        surge = [m for m in rec.adapters["web"].members()
                 if m.version == "v2"]
        if surge:
            break
    assert surge, "upgrade never surged"
    vc.chaos.crash_host(surge[0].host)
    vc.run(until=vc.engine.now + 20 * rec.period)
    vc.chaos.recover_host(surge[0].host)
    rec.apply(rec.spec.with_version("transcode", "v2"))
    vc.run(until=vc.engine.now + 30 * rec.period)


def converge_and_report(seed=7, kernel_rate=None):
    vc = build(seed)
    rec = run_storm(vc, kernel_rate=kernel_rate)
    exercise_upgrades(vc)
    vc.stop_background()
    vc.cluster.run()
    return vc, rec


def test_e_reconcile_storm_convergence(benchmark, capsys):
    kernel_rate = KernelRate()
    vc, rec = converge_and_report(kernel_rate=kernel_rate)
    counts = rec.actions.counts()
    report = rec.report

    # the fleet healed itself: every pool back on spec, nobody called in
    assert report.open_pools() == []
    # ... and all three control behaviours fired during the run
    assert counts.get("replace", 0) >= 1, counts
    assert counts.get("scale_up", 0) >= 1, counts
    assert counts.get("rollback", 0) == 1, counts
    assert counts.get("upgrade_done", 0) == 1, counts
    # observed state matches the final spec exactly
    spec = rec.spec
    assert len(vc.lb.backends) == spec.pool("web").replicas
    assert len(vc.fs.datanodes) == spec.pool("datanodes").replicas
    assert (len(vc.portal.transcoder.workers)
            == spec.pool("transcode").replicas)
    # rollback banned v2 for web; transcode finished its upgrade
    assert all(m.version == "v1"
               for m in rec.adapters["web"].members())
    assert all(m.version == "v2"
               for m in rec.adapters["transcode"].members())
    # convergence is prompt: divergences close within a few sweeps of
    # the fault clearing, far inside the storm horizon
    times = report.convergence_times()
    assert times and report.max_convergence_time() < TAIL

    rows = [[k, counts.get(k, 0)]
            for k in sorted(counts)]
    publish(capsys, BenchResult(
        "e_reconcile",
        params={"storm_rate": STORM_RATE, "mix": dict(MIX),
                "settle_s": SETTLE, "tail_s": TAIL},
        metrics={
            "actions": counts,
            "episodes": len(report.episodes),
            "mean_convergence_s": round(report.mean_convergence_time(), 3),
            "max_convergence_s": round(report.max_convergence_time(), 3),
            "sweeps": rec.sweeps,
            "final_replicas": {p.name: p.replicas for p in rec.spec.pools},
        },
        seed=7,
        events_per_sec=kernel_rate.events_per_sec,
    ).table("E-reconcile: action census under compound chaos",
            ["action", "count"], rows)
     .table("E-reconcile: convergence",
            ["episodes", "mean s", "max s", "sweeps"],
            [[len(report.episodes), f"{report.mean_convergence_time():.1f}",
              f"{report.max_convergence_time():.1f}", rec.sweeps]]))

    def kernel():
        vc = build_video_cloud(8, seed=3, reconcile=True, autoscale=False)
        vc.run(until=60.0)
        assert vc.reconciler.report.open_pools() == []
        vc.stop_background()
        vc.cluster.run()

    benchmark.pedantic(kernel, rounds=2, iterations=1)


def test_e_reconcile_storm_is_seed_deterministic(benchmark, capsys):
    def signatures(seed):
        vc = build(seed)
        rec = run_storm(vc, tail=200.0)
        out = (rec.actions.signature(), rec.report.signature())
        vc.stop_background()
        vc.cluster.run()
        return out

    a = signatures(11)
    b = signatures(11)
    assert a == b                   # bit-identical action log + report
    other = signatures(12)
    assert other != a               # the seed actually matters

    publish(capsys, BenchResult(
        "e_reconcile_determinism",
        params={"storm_rate": STORM_RATE, "tail_s": 200.0},
        metrics={"actions": len(a[0]), "episodes": len(a[1]),
                 "identical": a == b},
        seed=11,
    ))
    benchmark.pedantic(lambda: signatures(11), rounds=1, iterations=1)
