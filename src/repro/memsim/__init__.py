"""Memory-system simulation (the gem5-avx stand-in).

The paper drives its CXL emulator with "a trace of main memory accesses
during CPU simulation ... the timings and addresses of memory loads/stores"
collected from gem5-avx (Section VIII-A, Table II).  This package provides
the pieces needed to produce and consume such traces natively:

* :mod:`repro.memsim.trace` — access/write-back trace records;
* :mod:`repro.memsim.cache` — set-associative write-back caches;
* :mod:`repro.memsim.hierarchy` — the Table II three-level hierarchy;
* :mod:`repro.memsim.dram` — DRAM bank/row-buffer cycle model (the
  Ramulator stand-in for Section VIII-D's extra-read experiment).

The caches have one access path, ``access``, one access at a time.  The
experiments build their write-back traces from the closed-form
:func:`repro.trace.adam_writeback_trace`; the cache-accurate
:func:`repro.trace.simulate_sweep_writebacks` checks that model on small
arenas.
"""

from repro.memsim.cache import CacheStats, SetAssociativeCache
from repro.memsim.cpu import CPUModel, gem5_avx_cpu
from repro.memsim.dram import DRAMModel, DRAMTimings
from repro.memsim.hierarchy import CacheHierarchy, gem5_avx_hierarchy
from repro.memsim.trace import MemoryAccess, WritebackEvent, WritebackTrace

__all__ = [
    "SetAssociativeCache",
    "CPUModel",
    "gem5_avx_cpu",
    "CacheStats",
    "CacheHierarchy",
    "gem5_avx_hierarchy",
    "DRAMModel",
    "DRAMTimings",
    "MemoryAccess",
    "WritebackEvent",
    "WritebackTrace",
]
