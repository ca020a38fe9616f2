"""Hardware models for the Maia system (SGI Rackable C1104G-RP5).

Everything here is parameterized by frozen spec dataclasses whose default
values come from the paper's Table 1 and Section 2:

* :mod:`repro.machine.spec` — the dataclasses themselves,
* :mod:`repro.machine.cache` — cache-hierarchy walk model (Figs 5–6),
* :mod:`repro.machine.memory` — DDR3 channel / GDDR5 bank models (Fig 4),
* :mod:`repro.machine.core` — core issue/threading model,
* :mod:`repro.machine.processor` — Sandy Bridge / Xeon Phi assemblies,
* :mod:`repro.machine.pcie` — PCIe links with TLP framing (Fig 18),
* :mod:`repro.machine.interconnect` — FDR InfiniBand,
* :mod:`repro.machine.node` — the host+Phi0+Phi1 node topology,
* :mod:`repro.machine.system` — the 128-node cluster,
* :mod:`repro.machine.presets` — ready-made Maia factory functions.
"""

from repro.machine.cache import CacheWalkModel
from repro.machine.core import ThreadScaling
from repro.machine.interconnect import InfiniBandSpec
from repro.machine.memory import DramModel, Gddr5Model
from repro.machine.node import Device, MaiaNode
from repro.machine.pcie import PcieLink
from repro.machine.presets import (
    maia_host_processor,
    maia_node,
    maia_system,
    sandy_bridge_host,
    sandy_bridge_processor,
    xeon_phi_5110p,
)
from repro.machine.processor import Processor
from repro.machine.spec import (
    CacheLevel,
    CoreSpec,
    MemorySpec,
    NodeSpec,
    PcieSpec,
    ProcessorSpec,
    SystemSpec,
)
from repro.machine.system import MaiaSystem

__all__ = [
    "CacheLevel",
    "CacheWalkModel",
    "CoreSpec",
    "Device",
    "DramModel",
    "Gddr5Model",
    "InfiniBandSpec",
    "MaiaNode",
    "MaiaSystem",
    "MemorySpec",
    "NodeSpec",
    "PcieLink",
    "PcieSpec",
    "Processor",
    "ProcessorSpec",
    "SystemSpec",
    "ThreadScaling",
    "maia_host_processor",
    "maia_node",
    "maia_system",
    "sandy_bridge_host",
    "sandy_bridge_processor",
    "xeon_phi_5110p",
]
