"""Hysteresis autoscaler: watermarks, streaks, cooldown, signals."""

import pytest

from repro.common.errors import ReconcileError
from repro.hardware import Cluster
from repro.reconcile import (
    AutoscalePolicy,
    Autoscaler,
    queue_depth_signal,
    shed_rate_signal,
)


def scaler(value, **kwargs):
    kwargs.setdefault("pool", "web")
    kwargs.setdefault("high", 10.0)
    kwargs.setdefault("low", 2.0)
    box = {"v": value}
    a = Autoscaler(AutoscalePolicy(**kwargs), lambda: box["v"])
    return a, box


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"low": 5.0, "high": 1.0},
        {"up_after": 0},
        {"down_after": 0},
        {"cooldown": -1.0},
        {"step": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        kwargs.setdefault("pool", "web")
        kwargs.setdefault("high", 10.0)
        kwargs.setdefault("low", 2.0)
        with pytest.raises(ReconcileError):
            AutoscalePolicy(**kwargs)


class TestHysteresis:
    def test_single_spike_does_not_scale(self):
        a, box = scaler(50.0, up_after=2)
        assert a.evaluate(0.0, 3) == 3          # first sweep above: streak 1
        box["v"] = 5.0                          # back in the dead band
        assert a.evaluate(5.0, 3) == 3
        assert a.above == 0                     # streak was reset

    def test_sustained_pressure_scales_up(self):
        a, _ = scaler(50.0, up_after=2)
        assert a.evaluate(0.0, 3) == 3
        assert a.evaluate(5.0, 3) == 4

    def test_sustained_idle_scales_down_slower(self):
        a, _ = scaler(0.0, up_after=2, down_after=4, cooldown=0.0)
        for t in range(3):
            assert a.evaluate(float(t), 3) == 3
        assert a.evaluate(3.0, 3) == 2

    def test_cooldown_blocks_back_to_back_actions(self):
        a, _ = scaler(50.0, up_after=1, cooldown=30.0)
        assert a.evaluate(0.0, 3) == 4
        assert a.evaluate(5.0, 4) == 4          # still cooling down
        assert a.evaluate(31.0, 4) == 5         # cooldown over

    def test_step_size(self):
        a, _ = scaler(50.0, up_after=1, step=3)
        assert a.evaluate(0.0, 2) == 5

    def test_dead_band_resets_both_streaks(self):
        a, box = scaler(0.0, up_after=2, down_after=2, cooldown=0.0)
        a.evaluate(0.0, 3)
        box["v"] = 5.0
        a.evaluate(1.0, 3)
        assert a.above == 0 and a.below == 0


class TestSignals:
    @pytest.fixture()
    def cluster(self):
        return Cluster(2, seed=0)

    def test_queue_depth_sums_the_family(self, cluster):
        g = cluster.metrics.gauge("admission_queued", "q", labels=("server",))
        g.labels(server="a").set(3)
        g.labels(server="b").set(4)
        assert queue_depth_signal(cluster.metrics)() == 7.0

    def test_queue_depth_defaults_to_zero(self, cluster):
        assert queue_depth_signal(cluster.metrics)() == 0.0

    def test_shed_rate_is_delta_based(self, cluster):
        c = cluster.metrics.counter("admission_shed_total", "shed",
                                    labels=("klass",))
        clock = {"t": 0.0}
        sig = shed_rate_signal(cluster.metrics, lambda: clock["t"])
        c.labels(klass="search").inc(10)
        clock["t"] = 10.0
        assert sig() == pytest.approx(1.0)      # 10 sheds over 10 s
        clock["t"] = 20.0
        assert sig() == pytest.approx(0.0)      # no new sheds
