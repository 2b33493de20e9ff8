"""OpenNebula analogue: core daemon, capacity manager, drivers glue,
live migration, multi-VM services, monitoring, EC2 façade."""

from .cli import CloudShell
from .core import HostRecord, OpenNebula
from .econe import (
    INSTANCE_TYPES,
    DescribeInstancesResult,
    EconeApi,
    ImageDescription,
    InstanceDescription,
    KeyPairInfo,
    Reservation,
    TagDescription,
)
from .ft import FaultToleranceHook
from .hooks import Hook, HookManager, HookRecord
from .lifecycle import (
    ACTIVE_STATES,
    FINAL_STATES,
    TRANSITIONS,
    LifecycleTracker,
    OneState,
)
from .migration import MigrationResult, postcopy_migrate, precopy_migrate
from .monitoring import MonitoringService
from .scheduler import CapacityManager, host_facts
from .service import DeployedService, Role, ServiceManager, ServiceTemplate
from .template import (
    VmTemplate,
    free_memory_at_least,
    host_name_in,
    rank_free_memory,
)
from .users import (
    ACTIONS,
    DEFAULT_RULES,
    AclRule,
    AclService,
    CloudUser,
    UserPool,
)
from .vm import OneVm, PlacementRecord

__all__ = [
    "ACTIONS",
    "ACTIVE_STATES",
    "AclRule",
    "AclService",
    "CloudUser",
    "DEFAULT_RULES",
    "UserPool",
    "CapacityManager",
    "CloudShell",
    "DeployedService",
    "DescribeInstancesResult",
    "EconeApi",
    "FINAL_STATES",
    "FaultToleranceHook",
    "Hook",
    "HookManager",
    "HookRecord",
    "HostRecord",
    "INSTANCE_TYPES",
    "ImageDescription",
    "InstanceDescription",
    "KeyPairInfo",
    "LifecycleTracker",
    "MigrationResult",
    "MonitoringService",
    "OneState",
    "OneVm",
    "OpenNebula",
    "PlacementRecord",
    "Reservation",
    "Role",
    "ServiceManager",
    "ServiceTemplate",
    "TRANSITIONS",
    "TagDescription",
    "VmTemplate",
    "free_memory_at_least",
    "host_facts",
    "host_name_in",
    "postcopy_migrate",
    "precopy_migrate",
    "rank_free_memory",
]
