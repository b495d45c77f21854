"""TECO: Tensor-CXL-Offload — reproduction of the SC 2024 paper
"Efficient Tensor Offloading for Large Deep-Learning Model Training based
on Compute Express Link" (Xu et al.).

Package map (see DESIGN.md for the full inventory):

=====================  ====================================================
``repro.core``         public API: ``check_activation``, ``TecoSystem``
``repro.offload``      ZeRO-Offload / TECO engines (timing + functional)
``repro.coherence``    MESI home agent, update extension, giant cache
``repro.dba``          dirty-byte aggregation (registers, units, policy, HW)
``repro.interconnect`` PCIe + CXL link models, packets, pending queue
``repro.sim``          discrete-event simulation kernel
``repro.memsim``       caches, hierarchy, DRAM timing, write-back traces
``repro.trace``        trace generation + CXL replay pipeline
``repro.tensor``       NumPy autograd engine (transformers, GCNII)
``repro.models``       Table III model zoo + tiny trainable proxies
``repro.optim``        ADAM (flat + Tensor), gradient clipping
``repro.profiling``    value-change / communication profilers
``repro.compression``  LZ4 codec + quantization baselines
``repro.mdsim``        Lennard-Jones melt generality study
``repro.data``         synthetic datasets
``repro.experiments``  one driver per paper table/figure
=====================  ====================================================
"""

from repro.core import TecoConfig, TecoSystem, check_activation, cxl_fence
from repro.offload import (
    HardwareParams,
    OffloadTrainer,
    StepBreakdown,
    SystemKind,
    TrainerMode,
    simulate_system,
)

__version__ = "1.0.0"

__all__ = [
    "TecoConfig",
    "TecoSystem",
    "check_activation",
    "cxl_fence",
    "HardwareParams",
    "OffloadTrainer",
    "TrainerMode",
    "StepBreakdown",
    "SystemKind",
    "simulate_system",
    "__version__",
]
