"""Hypervisor models: KVM (hardware-assisted full virt), Xen (para-virt),
a pure emulator, and bare metal as the baseline.

Each hypervisor runs on one :class:`~repro.hardware.PhysicalHost`, owns the
guest domains placed there, and charges guest work the virtualization
overhead of its mode (Section II.B of the paper; constants in
:mod:`repro.common.calibration` with sources).

The overhead model is multiplicative on duration plus a fixed per-batch
exit cost -- full virtualization pays more VM exits on I/O, which is what
makes para-virtualized I/O faster in the paper's discussion.
"""

from __future__ import annotations

from typing import Generator

from ..common.calibration import Calibration
from ..common.errors import CapacityError, LifecycleError
from ..hardware import PhysicalHost
from .vm import VirtualMachine, VmState, WorkKind


class Hypervisor:
    """Base class; subclasses pin down the virtualization mode."""

    #: human name of the virtualization mode ("full", "para", "emul", "bare")
    mode: str = "bare"

    def __init__(self, host: PhysicalHost, cal: Calibration | None = None) -> None:
        self.host = host
        self.cal = cal or host.cal
        self.domains: dict[str, VirtualMachine] = {}

    # -- overheads ---------------------------------------------------------------

    def overhead(self, kind: WorkKind) -> float:
        """Multiplicative time factor for this mode and work kind."""
        v = self.cal.virt
        table = {
            ("bare", WorkKind.CPU): v.cpu_bare,
            ("bare", WorkKind.IO): v.io_bare,
            ("para", WorkKind.CPU): v.cpu_para,
            ("para", WorkKind.IO): v.io_para,
            ("full", WorkKind.CPU): v.cpu_full,
            ("full", WorkKind.IO): v.io_full,
            ("emul", WorkKind.CPU): v.cpu_emul,
            ("emul", WorkKind.IO): v.io_emul,
            # KVM with virtio drivers: hardware-assisted CPU, para-style I/O
            ("virtio", WorkKind.CPU): v.cpu_full,
            ("virtio", WorkKind.IO): v.io_para,
        }
        return table[(self.mode, kind)]

    def exit_cost(self, kind: WorkKind) -> float:
        """Fixed per-batch trap cost (seconds); bare metal pays none."""
        if self.mode == "bare":
            return 0.0
        # I/O batches cause many more exits than CPU batches.
        mult = 8.0 if kind == WorkKind.IO else 1.0
        return self.cal.virt.exit_cost * mult

    # -- domain lifecycle ---------------------------------------------------------

    def define(self, vm: VirtualMachine) -> None:
        """Place *vm* on this hypervisor (allocates guest RAM on the host)."""
        if vm.name in self.domains:
            raise LifecycleError(f"domain {vm.name} already defined on {self.host.name}")
        if vm.hypervisor is not None:
            raise LifecycleError(f"domain {vm.name} is already placed elsewhere")
        self.host.allocate_memory(vm.memory)
        self.domains[vm.name] = vm
        vm.hypervisor = self
        vm.state = VmState.DEFINED

    def start(self, vm: VirtualMachine) -> None:
        self._require_mine(vm)
        vm.require_state(VmState.DEFINED, VmState.SHUTOFF)
        vm.state = VmState.RUNNING

    def pause(self, vm: VirtualMachine) -> None:
        self._require_mine(vm)
        vm.require_state(VmState.RUNNING)
        vm.state = VmState.PAUSED

    def resume(self, vm: VirtualMachine) -> None:
        self._require_mine(vm)
        vm.require_state(VmState.PAUSED)
        vm.state = VmState.RUNNING

    def shutdown(self, vm: VirtualMachine) -> None:
        self._require_mine(vm)
        vm.require_state(VmState.RUNNING, VmState.PAUSED)
        vm.state = VmState.SHUTOFF

    def undefine(self, vm: VirtualMachine) -> None:
        """Remove the domain and release its RAM."""
        self._require_mine(vm)
        if vm.state == VmState.RUNNING:
            raise LifecycleError(f"cannot undefine running domain {vm.name}")
        del self.domains[vm.name]
        self.host.free_memory(vm.memory)
        vm.hypervisor = None
        # state stays SHUTOFF/DEFINED as it was; a re-define resets it.

    def eject(self, vm: VirtualMachine) -> None:
        """Forcibly detach a domain (migration handoff / host failure)."""
        self._require_mine(vm)
        del self.domains[vm.name]
        self.host.free_memory(vm.memory)
        vm.hypervisor = None

    def adopt(self, vm: VirtualMachine, state: VmState) -> None:
        """Attach an ejected domain (migration destination side)."""
        if vm.name in self.domains or vm.hypervisor is not None:
            raise LifecycleError(f"cannot adopt {vm.name}: already placed")
        self.host.allocate_memory(vm.memory)
        self.domains[vm.name] = vm
        vm.hypervisor = self
        vm.state = state

    # -- guest execution ------------------------------------------------------------

    def execute(self, vm: VirtualMachine, cycles: float, kind: WorkKind) -> Generator:
        """Process: run guest *cycles*, charged with this mode's overhead."""
        self._require_mine(vm)
        if cycles < 0:
            raise CapacityError(f"negative guest cycles: {cycles}")
        factor = self.overhead(kind)
        fixed = self.exit_cost(kind)
        host = self.host
        engine = host.engine

        def _run():
            vm.require_state(VmState.RUNNING)
            if fixed:
                yield engine.timeout(fixed)
            yield from host.compute(cycles, overhead=factor)
            vm.cpu_seconds_run += cycles * factor / host.cpu_hz
            return cycles

        return _run()

    def memory_committed(self) -> int:
        return sum(vm.memory for vm in self.domains.values())

    def _require_mine(self, vm: VirtualMachine) -> None:
        if self.domains.get(vm.name) is not vm:
            raise LifecycleError(
                f"domain {vm.name} is not managed by hypervisor on {self.host.name}"
            )


class BareMetal(Hypervisor):
    """No virtualization: the baseline for overhead comparisons (E01)."""

    mode = "bare"


class Kvm(Hypervisor):
    """KVM: hardware-assisted *full* virtualization (kvm.ko + qemu-kvm)."""

    mode = "full"


class XenPv(Hypervisor):
    """Xen in para-virtualized mode: modified guest, hypercall ABI."""

    mode = "para"


class Emulator(Hypervisor):
    """Pure software emulation (plain QEMU): the slow extreme of Figure 1."""

    mode = "emul"


class KvmVirtio(Hypervisor):
    """KVM with virtio paravirtual device drivers.

    What production KVM clouds of the paper's era actually deployed: full
    (hardware-assisted) CPU virtualization plus para-virtualized I/O paths,
    recovering most of the full-virt I/O penalty (Zhang et al., NPC'10).
    """

    mode = "virtio"


HYPERVISOR_TYPES: dict[str, type[Hypervisor]] = {
    "bare": BareMetal,
    "kvm": Kvm,
    "kvm-virtio": KvmVirtio,
    "xen": XenPv,
    "emul": Emulator,
}


def make_hypervisor(kind: str, host: PhysicalHost, cal: Calibration | None = None) -> Hypervisor:
    """Factory: build a hypervisor of *kind* ('kvm', 'xen', 'bare', 'emul')."""
    try:
        cls = HYPERVISOR_TYPES[kind]
    except KeyError:
        raise LifecycleError(
            f"unknown hypervisor kind {kind!r}; choose from {sorted(HYPERVISOR_TYPES)}"
        ) from None
    return cls(host, cal)
