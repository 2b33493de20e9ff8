"""VM templates, as the user writes them in the OpenNebula web UI (Figure 7:
"the user can create a virtual machine consistent with his desires").

A template declares shape (vcpus/memory), the master image, optional
placement *requirements* (hard filters) and a *rank* expression (soft
preference), plus contextualization data the core will deliver to the
booted VM (Section III.A: "the core also handles the context information
delivery ... to the VMs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..common.errors import ConfigError

# A requirement/rank receives a host-facts dict; see HostFacts in scheduler.py.
Requirement = Callable[[dict[str, Any]], bool]
RankFn = Callable[[dict[str, Any]], float]


@dataclass
class VmTemplate:
    """Everything needed to instantiate VMs of one flavour."""

    name: str
    vcpus: int
    memory: int                     # bytes of guest RAM
    image: str                      # name in the image datastore
    dirty_rate: float = 0.0         # bytes/s of guest memory writes
    wws_fraction: float = 0.1
    requirements: tuple[Requirement, ...] = ()
    rank: RankFn | None = None
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ConfigError(f"template {self.name}: vcpus must be >= 1")
        if self.memory <= 0:
            raise ConfigError(f"template {self.name}: memory must be > 0")
        if self.dirty_rate < 0:
            raise ConfigError(f"template {self.name}: dirty_rate must be >= 0")


def free_memory_at_least(nbytes: int) -> Requirement:
    """Requirement: host must have at least *nbytes* free RAM (beyond the VM)."""

    def req(facts: dict[str, Any]) -> bool:
        return facts["mem_free"] >= nbytes

    return req


def host_name_in(*names: str) -> Requirement:
    """Requirement: pin to an explicit set of hosts."""
    allowed = set(names)

    def req(facts: dict[str, Any]) -> bool:
        return facts["name"] in allowed

    return req


def rank_free_memory(facts: dict[str, Any]) -> float:
    """Rank: prefer hosts with more free RAM (OpenNebula's FREEMEMORY)."""
    return float(facts["mem_free"])
