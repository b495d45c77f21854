"""Dirty-Byte Aggregation (DBA) — Section V.

DBA ships only the least-significant ``dirty_bytes`` bytes of each FP32
parameter over CXL and reconstructs full values on the accelerator by
merging with the stale resident copy:

* :mod:`repro.dba.registers` — the 4-bit DBA register (enable + length)
  and per-region address registers in the CPU-side CXL module;
* :mod:`repro.dba.aggregator` — packs dirty bytes from 64-byte cache lines
  into CXL payloads (sender side);
* :mod:`repro.dba.disaggregator` — parses payloads and merges them into
  the stale lines in the giant cache (receiver side);
* :mod:`repro.dba.activation` — the runtime activation policy
  (``act_aft_steps``, ``check_activation``) from Listing 1;
* :mod:`repro.dba.hw` — FPGA-to-ASIC area/power/latency scaling
  reproducing the Section VIII-D overhead numbers.
"""

from repro.dba.activation import (
    ActivationPolicy,
    check_activation,
    fresh_policy,
    reset_default_policy,
)
from repro.dba.aggregator import Aggregator
from repro.dba.disaggregator import Disaggregator
from repro.dba.hw import ASIC_RATIOS, FPGAImplementation, HardwareCost
from repro.dba.registers import DBARegister, check_dirty_bytes

__all__ = [
    "DBARegister",
    "check_dirty_bytes",
    "Aggregator",
    "Disaggregator",
    "ActivationPolicy",
    "check_activation",
    "fresh_policy",
    "reset_default_policy",
    "FPGAImplementation",
    "HardwareCost",
    "ASIC_RATIOS",
]
