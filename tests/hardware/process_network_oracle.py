"""Reference delivery: the Process-per-timer `Network` the timer cells replaced.

`ProcessNetwork` schedules exactly what `Network` does, but the way the
fabric did before it scheduled ``call_later`` cells: every rate change
starts a ``net-timer`` process that sleeps until the earliest completion
(and returns without effect if a newer change superseded it), every
finished flow starts an ``xfer-done`` process that sleeps for the
propagation latency, and loopback, unreachable and zero-byte transfers
each start a process of their own.  The generator bodies are the old
ones verbatim.  It is kept only as the oracle of the differential tests
in ``test_network_delivery.py``: both must fire every completion at the
same instant, in the same order, with the same outcome.
"""

from __future__ import annotations

from repro.common.errors import PartitionError
from repro.hardware.network import LOOPBACK_RATE, Network


class ProcessNetwork(Network):
    """`Network` with one kernel process per timer and per delivery."""

    def transfer(self, src, dst, nbytes):
        special = src == dst or not self.reachable(src, dst) or nbytes == 0
        if not special or src not in self._hosts or dst not in self._hosts or nbytes < 0:
            return super().transfer(src, dst, nbytes)  # a flow, or a rejected call
        done = self.engine.event()
        if src == dst:
            # Loopback: latency-free memcpy, not subject to NIC contention.
            dur = nbytes / LOOPBACK_RATE

            def _loop():
                yield self.engine.timeout(dur)
                self.bytes_delivered += nbytes
                done.succeed(dur)

            self.engine.process(_loop(), name=f"loopback:{src}")
            return done

        if not self.reachable(src, dst):
            def _drop():
                yield self.engine.timeout(self.cal.net_latency)
                done.fail(PartitionError(f"{src}->{dst}: unreachable"))
                done.defuse()

            self.engine.process(_drop(), name=f"xfer-drop:{src}->{dst}")
            return done

        dur = self._latency(src, dst)

        def _empty():
            yield self.engine.timeout(dur)
            done.succeed(dur)

        self.engine.process(_empty(), name=f"xfer0:{src}->{dst}")
        return done

    def _recompute_and_schedule(self):
        self._max_min_rates()
        self._timer_token += 1
        token = self._timer_token
        # earliest completion among active flows
        next_done = None
        for f in self._flows:
            if f.rate <= 0:
                continue
            t = f.remaining / f.rate
            if next_done is None or t < next_done:
                next_done = t
        if next_done is None:
            return
        expected = [
            f
            for f in self._flows
            if f.rate > 0 and f.remaining / f.rate <= next_done * (1 + 1e-9)
        ]

        def _timer():
            yield self.engine.timeout(next_done)
            if token != self._timer_token:
                return  # superseded by a newer rate change
            self._advance()
            for f in expected:
                f.remaining = 0.0
            finished = [f for f in self._flows if f.remaining <= 1e-9]
            for f in finished:
                self._remove(f)
                self.bytes_delivered += f.size
                self._complete(f)
            self._recompute_and_schedule()

        self.engine.process(_timer(), name="net-timer")

    def _complete(self, flow):
        latency = self._latency(flow.src, flow.dst)
        duration = self.engine.now - flow.started + latency

        def _finish():
            yield self.engine.timeout(latency)
            flow.done.succeed(duration)

        self.engine.process(_finish(), name=f"xfer-done:{flow.src}->{flow.dst}")
