"""Reference max-min solver: the plain progressive filling `Network` replaced.

Every round recounts each link's unfrozen flows over *all* attached links
and freezes the bottleneck's flows.  It is quadratic in the flow count and
kept only as the oracle of the differential tests: `Network._max_min_rates`
must give exactly (``==``) these rates.  The body is the pre-rewrite solver
verbatim except that it returns the rates instead of storing them on the
flows, and keys residuals by the flows' `_Link` objects.
"""

from __future__ import annotations


def max_min_rates(network) -> dict:
    """Max-min fair rate of every in-flight flow of *network*."""
    rate = {}
    unfrozen = set(network._flows)
    residual = {link: link.capacity for link in network._links.values()}
    for f in unfrozen:
        rate[f] = 0.0
    while unfrozen:
        # fair share each link could give its unfrozen flows
        best_share = None
        best_link = None
        for link in network._links.values():
            n = sum(1 for f in link.flows if f in unfrozen)
            if n == 0:
                continue
            share = residual[link] / n
            if best_share is None or share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        # freeze every unfrozen flow crossing the bottleneck
        frozen_now = [f for f in best_link.flows if f in unfrozen]
        for f in frozen_now:
            rate[f] = best_share
            unfrozen.discard(f)
            for link in f.links:
                residual[link] -= best_share
        residual[best_link] = 0.0
    return rate
