"""Virtual Machine Manager (VMM) driver -- the libvirt analogue.

One VMM driver instance manages the hypervisor of one host.  All operations
are simulation *processes* with era-plausible fixed costs (a 2012 KVM guest
boots its kernel in tens of seconds; defining/destroying a libvirt domain
is sub-second).
"""

from __future__ import annotations

from typing import Generator

from ..common.errors import DriverError
from ..virt import Hypervisor, VirtualMachine, VmState
from .base import CallTrace


class VmmDriver:
    """Deploy / shutdown / cancel / save / restore domains on one host."""

    #: seconds for the guest OS to boot after the domain is created
    BOOT_TIME = 25.0
    #: seconds for a clean guest shutdown
    SHUTDOWN_TIME = 8.0
    #: seconds to hard-destroy a domain
    CANCEL_TIME = 0.5
    #: rate at which guest RAM is written to / read from disk on save/restore
    #: is taken from the host's disk model.

    def __init__(self, hypervisor: Hypervisor, trace: CallTrace) -> None:
        self.hypervisor = hypervisor
        self.trace = trace
        self.name = f"vmm.{hypervisor.mode}"

    @property
    def host_name(self) -> str:
        return self.hypervisor.host.name

    # Each public method returns a generator to be wrapped in engine.process().

    def deploy(self, vm: VirtualMachine) -> Generator:
        """Define the domain and boot the guest."""
        engine = self.hypervisor.host.engine
        self.trace.record(self.name, "deploy", vm.name, host=self.host_name)
        self.hypervisor.define(vm)
        self.hypervisor.start(vm)
        yield engine.timeout(self.BOOT_TIME)
        return vm

    def shutdown(self, vm: VirtualMachine) -> Generator:
        """ACPI-style clean shutdown, then undefine."""
        engine = self.hypervisor.host.engine
        self.trace.record(self.name, "shutdown", vm.name, host=self.host_name)
        yield engine.timeout(self.SHUTDOWN_TIME)
        self.hypervisor.shutdown(vm)
        self.hypervisor.undefine(vm)

    def cancel(self, vm: VirtualMachine) -> Generator:
        """Hard destroy (qemu process kill)."""
        engine = self.hypervisor.host.engine
        self.trace.record(self.name, "cancel", vm.name, host=self.host_name)
        yield engine.timeout(self.CANCEL_TIME)
        if vm.state in (VmState.RUNNING, VmState.PAUSED):
            self.hypervisor.shutdown(vm)
        self.hypervisor.undefine(vm)

    def save(self, vm: VirtualMachine) -> Generator:
        """Suspend to disk: pause, then write guest RAM to the host disk."""
        host = self.hypervisor.host
        self.trace.record(self.name, "save", vm.name, host=self.host_name)
        self.hypervisor.pause(vm)
        yield from host.disk.write(vm.memory)
        return vm

    def restore(self, vm: VirtualMachine) -> Generator:
        """Resume from disk: read guest RAM back, then unpause."""
        host = self.hypervisor.host
        self.trace.record(self.name, "restore", vm.name, host=self.host_name)
        if vm.state is not VmState.PAUSED:
            raise DriverError(f"restore: {vm.name} is not saved/paused")
        yield from host.disk.read(vm.memory)
        self.hypervisor.resume(vm)
        return vm
