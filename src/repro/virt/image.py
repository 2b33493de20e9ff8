"""Disk images and the image datastore.

OpenNebula keeps master images in a datastore on the front-end and clones
them to hosts when a VM is deployed (its *transfer manager* drivers).  Here
an :class:`ImageStore` lives on a named host; cloning an image to another
host costs a network transfer plus a destination disk write, which is
exactly the "prolog" stage of the OpenNebula VM lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..common.errors import ConfigError, DriverError
from ..hardware import Cluster


@dataclass(frozen=True)
class DiskImage:
    """An immutable master image (e.g. 'ubuntu-10.04.qcow2')."""

    name: str
    size: int              # bytes
    fmt: str = "qcow2"     # qcow2 | raw
    os_type: str = "linux"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"image {self.name}: size must be > 0")
        if self.fmt not in ("qcow2", "raw"):
            raise ConfigError(f"image {self.name}: unknown format {self.fmt}")


class ImageStore:
    """Master-image repository living on one host (the front-end)."""

    def __init__(self, cluster: Cluster, host_name: str) -> None:
        if host_name not in cluster.host_names:
            raise ConfigError(f"image store host {host_name} not in cluster")
        self.cluster = cluster
        self.host_name = host_name
        self._images: dict[str, DiskImage] = {}

    def register(self, image: DiskImage) -> DiskImage:
        if image.name in self._images:
            raise DriverError(f"image {image.name} already registered")
        self._images[image.name] = image
        return image

    def get(self, name: str) -> DiskImage:
        try:
            return self._images[name]
        except KeyError:
            raise DriverError(f"no image named {name!r} in datastore") from None

    def __contains__(self, name: str) -> bool:
        return name in self._images

    def list_images(self) -> list[DiskImage]:
        return sorted(self._images.values(), key=lambda i: i.name)

    def clone_to(self, image_name: str, dst_host: str) -> Generator:
        """Process: copy a master image to *dst_host* (network + disk write)."""
        image = self.get(image_name)
        cluster = self.cluster

        def _clone():
            yield cluster.network.transfer(self.host_name, dst_host, image.size)
            yield from cluster.host(dst_host).disk.write(image.size)
            return image

        return _clone()
