"""MachineSpec: the single frozen recipe for constructing a Machine.

:class:`MachineSpec` folds everything construction depends on — system
parameters (which carry the interconnect :class:`Topology`), protocol,
seed, fault config and crash spec — into one frozen, hashable value with
one entry point, :meth:`MachineSpec.build`:

.. code-block:: python

    spec = MachineSpec(params=SystemParams(num_chips=8,
                                           topology=Topology.mesh()),
                       protocol="TokenCMP-dst1-mcast", seed=3)
    machine = spec.build()
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.common.params import SystemParams
from repro.interconnect.topology import Topology
from repro.system.config import ProtocolConfig, protocol as lookup_protocol


@dataclasses.dataclass(frozen=True)
class MachineSpec:
    """Everything one machine's construction depends on, as frozen data.

    ``protocol`` accepts a registry name or a full
    :class:`~repro.system.config.ProtocolConfig`; names are resolved at
    construction so equal specs compare equal.  ``faults`` is a
    :class:`~repro.faults.injector.FaultConfig`, ``crash`` a
    :class:`~repro.faults.crash.CrashSpec`; both default off.
    """

    params: SystemParams = dataclasses.field(default_factory=SystemParams)
    protocol: Union[str, ProtocolConfig] = "TokenCMP-dst1"
    seed: int = 0
    faults: Optional[object] = None  # repro.faults.injector.FaultConfig
    crash: Optional[object] = None  # repro.faults.crash.CrashSpec

    def __post_init__(self) -> None:
        if isinstance(self.protocol, str):
            object.__setattr__(self, "protocol", lookup_protocol(self.protocol))

    # ------------------------------------------------------------------
    @property
    def protocol_name(self) -> str:
        return self.protocol.name

    @property
    def topology(self) -> Topology:
        """The interconnect spec this machine compiles (from ``params``)."""
        return self.params.topology

    # ------------------------------------------------------------------
    def build(self) -> "Machine":
        """Construct the fully wired machine (arming crashes if specified).

        The one supported construction path: ``run_cell`` and every other
        runner funnel through here, so a spec in hand *is* the machine.
        """
        from repro.system.machine import Machine

        machine = Machine(self)
        if self.crash is not None:
            from repro.faults.crash import CrashInjector

            CrashInjector(machine, self.crash, seed=self.seed)
        return machine
