"""E13 (Figure 15): the web tier -- Lighttpd vs a preforking server.

"Lighttpd needs very little memory and CPU resource to obtain the same
efficiency" (Section IV): both server models serve the identical portal
handler under increasing concurrency; the bench reports latency, CPU and
memory footprint, plus a request-flow trace over the Figure 15 page graph.
"""

import pytest

from repro.hardware import Cluster
from repro.web import ApachePrefork, Lighttpd, Request, Response

from _util import BenchResult, publish, run


def make_server(cls):
    cluster = Cluster(2)
    server = cls(cluster, "node0")

    def page(request):
        def _h():
            # a typical PHP page: some CPU + a DB query's worth of time
            yield from server.host.compute_seconds(cluster.cal.web.php_page_cpu)
            return Response(body={"page": "home"})

        return _h()

    server.route("GET", "/", page)
    return cluster, server


def hammer(cluster, server, n_requests):
    t0 = cluster.engine.now
    procs = [
        cluster.engine.process(server.handle(
            Request("GET", "/", client_host="node1")))
        for _ in range(n_requests)
    ]
    cluster.engine.run(cluster.engine.all_of(procs))
    return cluster.engine.now - t0


def test_e13_lighttpd_vs_prefork(benchmark, capsys):
    rows = []
    metrics = {}
    for cls in (Lighttpd, ApachePrefork):
        cluster, server = make_server(cls)
        elapsed = hammer(cluster, server, 500)
        metrics[cls.kind] = (elapsed, server.stats.cpu_seconds,
                             server.memory_footprint())
        rows.append([
            server.kind, 500, f"{elapsed:.2f}",
            f"{server.stats.cpu_seconds * 1000:.0f}",
            f"{server.memory_footprint() / 1024 / 1024:.0f}",
        ])
    publish(capsys, BenchResult(
        "e13_lighttpd_vs_prefork",
        params={"requests": 500},
        metrics={kind: {"makespan_s": round(m[0], 3),
                        "cpu_s": round(m[1], 4),
                        "memory_bytes": m[2]}
                 for kind, m in metrics.items()},
    ).table("E13: 500 portal requests under concurrency",
            ["server", "requests", "makespan s", "server CPU ms",
             "memory MiB"], rows))
    lt, ap = metrics["lighttpd"], metrics["apache-prefork"]
    assert lt[1] < ap[1]          # less CPU
    assert lt[2] < ap[2]          # far less memory
    assert lt[0] <= ap[0] * 1.05  # and at least as fast

    cluster, server = make_server(Lighttpd)
    benchmark.pedantic(hammer, args=(cluster, server, 50), rounds=3, iterations=1)


def test_e13_page_graph_trace(benchmark, capsys):
    """Walk the Figure 15 page graph and record per-page service times."""
    from repro.common.units import MiB, Mbps
    from repro.hdfs import Hdfs
    from repro.video import R_720P, VideoFile
    from repro.web import VideoPortal

    cluster = Cluster(7)
    fs = Hdfs(cluster, namenode_host="node0",
              datanode_hosts=cluster.host_names[1:],
              block_size=32 * MiB, replication=2)
    portal = VideoPortal(cluster, fs, web_host="node1",
                         transcode_workers=cluster.host_names[2:])

    media = VideoFile(name="c.avi", container="avi", vcodec="mpeg4",
                      acodec="mp3", duration=60.0, resolution=R_720P,
                      fps=25.0, bitrate=4 * Mbps)
    flow = [
        ("POST", "/register", {"username": "kuan", "password": "secret99",
                               "email": "k@x.y"}, None),
    ]
    rows = []
    session = None
    run(cluster, portal.request(*flow[0][:2], params=flow[0][2]))
    _, token = portal.auth.outbox[-1]
    steps = [
        ("POST", "/verify", {"token": token}),
        ("POST", "/login", {"username": "kuan", "password": "secret99"}),
        ("POST", "/upload", {"title": "Nobody MV", "tags": "nobody",
                             "media": media}),
        ("GET", "/", {}),
        ("GET", "/search", {"q": "nobody"}),
        ("POST", "/logout", {}),
    ]
    vid = None
    for method, path, params in steps:
        t0 = cluster.now
        resp = run(cluster, portal.request(method, path, params=params,
                                           session=session))
        if resp.set_session:
            session = resp.set_session
        if path == "/upload":
            vid = resp.body["video_id"]
        rows.append([f"{method} {path}", resp.status, f"{cluster.now - t0:.3f}"])
    publish(capsys, BenchResult(
        "e13b_page_graph",
        params={"pages": len(rows)},
        metrics={"all_ok": all(r[1] == 200 for r in rows)},
    ).table("E13b: Figure 15 request flow (service time per page)",
            ["page", "status", "service s"], rows))
    assert vid is not None
    assert all(r[1] in (200,) for r in rows)
    benchmark.pedantic(
        lambda: run(cluster, portal.request("GET", "/")), rounds=5, iterations=1)


def test_e13_page_latency_by_virtualization_mode(benchmark, capsys):
    """C3 at the SaaS layer: the same portal pages served from guests under
    different hypervisors (the paper's web tier runs inside IaaS VMs)."""
    from repro.common.units import GiB, MiB
    from repro.hdfs import Hdfs
    from repro.virt import DiskImage, VirtualMachine, make_hypervisor
    from repro.web import VideoPortal

    def page_time(hv_kind, n=60):
        cluster = Cluster(6)
        fs = Hdfs(cluster, namenode_host="node0",
                  datanode_hosts=cluster.host_names[1:],
                  block_size=16 * MiB, replication=2)
        guest = None
        if hv_kind is not None:
            hv = make_hypervisor(hv_kind, cluster.host("node1"))
            guest = VirtualMachine("web-vm", vcpus=2, memory=1 * GiB,
                                   image=DiskImage("ubuntu", size=1 * GiB))
            hv.define(guest)
            hv.start(guest)
        portal = VideoPortal(cluster, fs, web_host="node1",
                             transcode_workers=cluster.host_names[2:],
                             guest_vm=guest)
        t0 = cluster.now
        for _ in range(n):
            run(cluster, portal.request("GET", "/"))
        return (cluster.now - t0) / n

    rows = []
    times = {}
    for kind, label in ((None, "bare metal"), ("xen", "Xen PV"),
                        ("kvm-virtio", "KVM + virtio"), ("kvm", "KVM (full)")):
        t = page_time(kind)
        times[kind] = t
        rows.append([label, f"{t * 1000:.3f}"])
    publish(capsys, BenchResult(
        "e13c_virtualization_modes",
        params={"requests_per_mode": 60},
        metrics={"mean_page_ms": {str(k): round(t * 1000, 4)
                                  for k, t in times.items()}},
    ).table("E13c: portal home-page time by web-tier virtualization",
            ["web tier", "mean page ms"], rows))
    assert times[None] < times["xen"] <= times["kvm-virtio"] <= times["kvm"]
    benchmark.pedantic(page_time, args=("kvm", 10), rounds=2, iterations=1)
