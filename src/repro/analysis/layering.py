"""The layering DAG: the single source of truth for ARCH01.

Each key is a top-level ``repro`` subpackage (or top-level module); the
value is the set of subpackages it may import from.  The table encodes
the stack of the paper, bottom-up::

    common                          pure utilities, errors, rng, units
    sim, obs                        event kernel; metrics + tracing
    resilience                      deadlines, breakers, rate limits, admission
    hardware                        hosts, disks, network, cluster
    virt                            hypervisor, images, dirty-page model
    drivers                         ONE's im/tm/vmm driver shims
    hdfs                            namenode / datanodes / placement / HA
                                    pair over the quorum journal (``ha``)
    one                             OpenNebula core, scheduler, FT, CLI
    mapreduce                       jobtracker / tasktrackers over HDFS
    fusehdfs, video, search         the PaaS/SaaS middle tier
    web                             portal, auth, feed, mini-DB, server
    chaos                           fault injection over the whole stack
    reconcile                       self-healing control plane over all layers
    stack, bench                    top-level assembly and workloads

``analysis`` (this package) sits outside the runtime stack and may only
reach ``common`` -- that covers both the static checkers and the runtime
consistency checker (``history``), which sees the system purely through
recorded operations.  Imports guarded by ``if TYPE_CHECKING:`` are ignored
-- they never execute, so they cannot create runtime layering cycles.

Adding an edge here is an architectural decision: keep the graph a DAG
(ARCH02 independently rejects module-level cycles) and keep lower
layers ignorant of higher ones.
"""

from __future__ import annotations

ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "common": frozenset(),
    "sim": frozenset({"common"}),
    "obs": frozenset({"common"}),
    "analysis": frozenset({"common"}),
    "resilience": frozenset({"common", "sim", "obs"}),
    "hardware": frozenset({"common", "sim", "obs"}),
    "virt": frozenset({"common", "sim", "obs", "hardware"}),
    "drivers": frozenset({"common", "sim", "obs", "hardware", "virt"}),
    "hdfs": frozenset({"common", "sim", "obs", "resilience", "hardware"}),
    "one": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "virt", "drivers",
        "hdfs",
    }),
    "mapreduce": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "hdfs",
    }),
    "fusehdfs": frozenset({"common", "sim", "obs", "hardware", "hdfs"}),
    "video": frozenset({"common", "sim", "obs", "hardware", "hdfs"}),
    "search": frozenset({
        "common", "sim", "obs", "hardware", "hdfs", "mapreduce",
    }),
    "web": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "virt", "hdfs",
        "fusehdfs", "video", "search",
    }),
    "chaos": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "virt", "drivers",
        "hdfs", "one", "mapreduce", "web",
    }),
    # the control plane observes and acts on every managed layer, but the
    # layers (and chaos) never import it back -- the loop closes at runtime
    # through adapters, not through the import graph
    "reconcile": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "virt", "drivers",
        "hdfs", "one", "mapreduce", "fusehdfs", "video", "search", "web",
    }),
    "stack": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "virt", "drivers",
        "hdfs", "one", "mapreduce", "fusehdfs", "video", "search", "web",
        "chaos", "reconcile",
    }),
    # bench may import analysis: the harness stamps every published result
    # with the analyzer version/rule-count the tree passed (and nothing in
    # the runtime stack imports bench back)
    "bench": frozenset({
        "common", "sim", "obs", "resilience", "hardware", "virt", "drivers",
        "hdfs", "one", "mapreduce", "fusehdfs", "video", "search", "web",
        "chaos", "reconcile", "stack", "analysis",
    }),
}
