"""LoadBalancer: round-robin, draining, and no-backend behaviour."""

import pytest

from repro.common.errors import WebError
from repro.stack import build_video_cloud


@pytest.fixture()
def vc():
    cloud = build_video_cloud(8, seed=5, reconcile=True, autoscale=False)
    cloud.run(until=30.0)          # reconciler fills the web pool to 2
    yield cloud
    cloud.stop_background()
    cloud.cluster.run()


def get(vc, path="/"):
    # requests originate from the front-end so killing web backends
    # never strands the reply transfer
    done = vc.engine.process(
        vc.portal.request("GET", path, client_host="node0"))
    vc.run(done)
    return done.value


def served_counts(vc):
    counter = vc.cluster.metrics.get("lb_requests_total")
    return {c.labelvalues: c.value for c in counter.children()
            if c.labelvalues}


class TestRouting:
    def test_requests_round_robin_over_healthy_backends(self, vc):
        assert len(vc.lb.backends) == 2
        for _ in range(4):
            resp = get(vc)
            assert resp.status == 200
        served = served_counts(vc)
        assert len(served) == 2
        assert all(v == 2 for v in served.values())

    def test_draining_backend_gets_no_new_requests(self, vc):
        victim = next(iter(vc.lb.backends))
        vc.lb.drain(victim)
        before = served_counts(vc)
        for _ in range(3):
            assert get(vc).status == 200
        after = served_counts(vc)
        for labels, value in after.items():
            if victim in labels:
                assert value == before.get(labels, 0.0)
        vc.lb.undrain(victim)

    def test_dead_backend_skipped(self, vc):
        victim = next(iter(vc.lb.backends))
        vc.cluster.host(victim).fail()
        assert get(vc).status == 200
        vc.cluster.host(victim).recover()

    def test_all_backends_down_is_503(self, vc):
        for name in vc.lb.backends:
            vc.cluster.host(name).fail()
        resp = get(vc)
        assert resp.status == 503
        assert resp.headers.get("Retry-After") is not None
        for name in vc.lb.backends:
            vc.cluster.host(name).recover()


class TestMembership:
    def test_duplicate_backend_rejected(self, vc):
        name = next(iter(vc.lb.backends))
        with pytest.raises(WebError):
            vc.lb.add_backend(name, vc.lb.backends[name])

    def test_remove_unknown_backend_rejected(self, vc):
        with pytest.raises(WebError):
            vc.lb.remove_backend("nope")
