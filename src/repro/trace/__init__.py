"""Write-back trace generation and CXL replay (the paper's pipeline).

The paper's evaluation flow is: simulate the CPU-side ADAM update in
gem5-avx to collect a main-memory write-back trace
(``model_name_gem5_avx.sh``), then replay the trace through the CXL
emulator to get the transfer time not overlapped with compute
(``process.py``).  This package is that pipeline:

* :mod:`repro.trace.generator` — produces the write-back trace of a
  blocked, vectorized ADAM sweep, either analytically (streaming model,
  whole or as bounded chunks) or through the real cache hierarchy;
* :mod:`repro.trace.replay` — replays a trace, or a stream of its chunks,
  over a CXL link model and reports exposed (non-overlapped) transfer
  time and wire volume; the analytic sweep's stream replays in closed
  form.
"""

from repro.trace.generator import (
    adam_writeback_chunks,
    adam_writeback_trace,
    simulate_sweep_writebacks,
)
from repro.trace.replay import (
    ReplayResult,
    replay_trace,
    replay_trace_scalar,
)

__all__ = [
    "adam_writeback_chunks",
    "adam_writeback_trace",
    "simulate_sweep_writebacks",
    "ReplayResult",
    "replay_trace",
    "replay_trace_scalar",
]
