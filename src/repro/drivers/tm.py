"""Transfer Manager (TM) driver.

Moves VM disk images between the front-end datastore and hosts: the
*prolog* (clone the image to the deployment host before boot) and *epilog*
(clean up, or save the delta back) stages of OpenNebula's VM lifecycle.

Two strategies mirror the real TM drivers:

* ``ssh``    -- every deployment copies the full image over the wire;
* ``shared`` -- images live on shared storage (NFS), so the prolog only
  creates a qcow2 snapshot: constant small cost, no bulk transfer.
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import ConfigError
from ..virt import DiskImage, ImageStore
from .base import CallTrace

SNAPSHOT_COST = 0.8  # seconds: qcow2 backing-file creation on shared storage


class TransferDriver:
    """Clones images to hosts; deletes them on epilog."""

    def __init__(self, store: ImageStore, trace: CallTrace, strategy: str = "ssh") -> None:
        if strategy not in ("ssh", "shared"):
            raise ConfigError(f"unknown TM strategy {strategy!r}")
        self.store = store
        self.trace = trace
        self.strategy = strategy
        self.name = f"tm.{strategy}"

    def prolog(self, image: DiskImage, dst_host: str) -> Generator:
        """Stage the image onto *dst_host*."""
        engine = self.store.cluster.engine
        self.trace.record(self.name, "prolog", dst_host, image=image.name)
        if self.strategy == "shared":
            yield engine.timeout(SNAPSHOT_COST)
        else:
            yield engine.process(self.store.clone_to(image.name, dst_host))

    def epilog(self, image: DiskImage, host: str) -> Generator:
        """Remove the per-VM image copy from *host*."""
        engine = self.store.cluster.engine
        self.trace.record(self.name, "epilog", host, image=image.name)
        # Deleting a file: constant metadata cost either way.
        yield engine.timeout(0.2)

    def move(self, image: DiskImage, src_host: str, dst_host: str) -> Generator:
        """Cold-move a deployed image between hosts (non-live migration)."""
        cluster = self.store.cluster
        self.trace.record(self.name, "move", dst_host, image=image.name, src=src_host)
        if self.strategy == "shared":
            yield cluster.engine.timeout(SNAPSHOT_COST)
        else:
            yield cluster.network.transfer(src_host, dst_host, image.size)
            yield from cluster.host(dst_host).disk.write(image.size)
