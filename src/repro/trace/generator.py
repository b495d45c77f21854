"""Write-back trace generation for the blocked ADAM parameter sweep.

The CPU optimizer streams linearly over the flat parameter arena with
vectorized stores.  Under a write-back LLC, a stored line is evicted —
and therefore crosses CXL under the update protocol — roughly one LLC
capacity *behind* the sweep front, and the per-iteration flush pushes the
tail out at the end (Section IV-A2).

Two generators are provided:

* :func:`adam_writeback_trace` — the analytic streaming model: exact for a
  linear sweep (each line written once, written back ``llc_lines`` lines
  later, remainder flushed at sweep end).  It is closed-form, and
  :func:`adam_writeback_chunks` streams the same times in bounded
  blocks, so billions of parameters replay without building the trace.
* :func:`simulate_sweep_writebacks` — drives the real
  :class:`~repro.memsim.hierarchy.CacheHierarchy` access by access; it is
  the test oracle of the closed form on small arenas.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.interconnect.packets import CACHE_LINE_BYTES
from repro.memsim.hierarchy import CacheHierarchy
from repro.memsim.trace import WritebackTrace
from repro.utils.checks import check_int

__all__ = [
    "SweepChunks",
    "adam_writeback_chunks",
    "adam_writeback_trace",
    "simulate_sweep_writebacks",
]


def _check_sweep(param_bytes, sweep_duration, llc_bytes) -> tuple[int, int]:
    """Validate one ADAM sweep; returns ``(n_lines, llc_lines)``.

    A fractional or ``bool`` byte count would silently round to a line
    count, an LLC under one line would silently become one line, and a
    non-finite duration would poison every timestamp.
    """
    check_int("param_bytes", param_bytes, 1)
    check_int("llc_bytes", llc_bytes, CACHE_LINE_BYTES)
    if not (math.isfinite(sweep_duration) and sweep_duration > 0):
        raise ValueError(
            f"sweep_duration must be finite and positive, got {sweep_duration!r}"
        )
    n_lines = -(-int(param_bytes) // CACHE_LINE_BYTES)
    return n_lines, int(llc_bytes) // CACHE_LINE_BYTES


def adam_writeback_trace(
    param_bytes: int,
    sweep_duration: float,
    llc_bytes: int = 16 * 2**20,
    base_address: int = 0,
) -> WritebackTrace:
    """Analytic write-back trace of one linear ADAM sweep.

    Parameters
    ----------
    param_bytes
        Size of the parameter arena being updated.
    sweep_duration
        Wall time of the full ADAM sweep (from the timing model).
    llc_bytes
        Last-level-cache capacity (Table II: 16 MB); a written line is
        evicted when the sweep front is this far past it.
    base_address
        Arena base (cache-line aligned).

    Returns
    -------
    WritebackTrace
        One event per parameter cache line, timestamped when the line
        reaches main memory: :func:`adam_writeback_chunks` as one block.
    """
    n_lines, _ = _check_sweep(param_bytes, sweep_duration, llc_bytes)
    if base_address % CACHE_LINE_BYTES:
        raise ValueError("base_address must be line aligned")
    (writeback_time,) = adam_writeback_chunks(
        param_bytes, sweep_duration, llc_bytes, block_lines=n_lines
    )
    addresses = (
        base_address + np.arange(n_lines, dtype=np.uint64) * CACHE_LINE_BYTES
    )
    return WritebackTrace(writeback_time, addresses)


def adam_writeback_chunks(
    param_bytes: int,
    sweep_duration: float,
    llc_bytes: int = 16 * 2**20,
    chunk_lines: int = 1,
    block_lines: int = 1 << 16,
) -> SweepChunks:
    """Stream the ADAM sweep's write-back times in bounded blocks.

    Iterating the result yields float64 time arrays for line-index
    blocks ``[lo, lo + block_lines)`` in order, so
    :func:`~repro.trace.replay.replay_trace` could fold a billion-line
    sweep in ``block_lines``-sized memory; it replays a
    :class:`SweepChunks` in closed form instead, with the same result.
    The arguments are checked here, before the first block is built.

    ``chunk_lines`` sets the streaming granularity: 1 is per-line
    streaming (the times of :func:`adam_writeback_trace`); ``c > 1``
    makes each line visible only when its ``c``-line chunk completes,
    i.e. at the write-back time of line ``min((i // c + 1) * c - 1,
    n - 1)``; 0 sends every line at sweep end.  The quantization works
    on the global line index, so a chunk may straddle blocks.
    """
    return SweepChunks(
        param_bytes, sweep_duration, llc_bytes, chunk_lines, block_lines
    )


class SweepChunks:
    """The block stream of :func:`adam_writeback_chunks`, with its geometry.

    :meth:`times` is the one write-back-time expression: the blocks are
    its values, and the closed-form replay evaluates it at a few line
    indices, so both round alike.
    """

    def __init__(
        self, param_bytes, sweep_duration, llc_bytes, chunk_lines, block_lines
    ):
        self.n_lines, self.llc_lines = _check_sweep(
            param_bytes, sweep_duration, llc_bytes
        )
        self.sweep_duration = sweep_duration
        self.chunk_lines = check_int("chunk_lines", chunk_lines, 0)
        self.block_lines = check_int("block_lines", block_lines, 1)
        self.time_per_line = sweep_duration / self.n_lines

    def times(self, idx: np.ndarray) -> np.ndarray:
        """Write-back times of the int64 line indices ``idx``."""
        n, c = self.n_lines, self.chunk_lines
        if c == 0:
            return np.full(idx.size, self.sweep_duration, dtype=np.float64)
        if c > 1:
            idx = np.minimum((idx // c + 1) * c - 1, n - 1)
        # Line i is written at (i+1)*tpl and written back when the front
        # reaches i + llc_lines; lines inside the final LLC-capacity
        # window are flushed at sweep end.
        return np.minimum(
            (idx.astype(np.float64) + self.llc_lines) * self.time_per_line,
            self.sweep_duration,
        )

    def __iter__(self) -> Iterator[np.ndarray]:
        n, block = self.n_lines, self.block_lines
        for lo in range(0, n, block):
            yield self.times(np.arange(lo, min(lo + block, n)))


def simulate_sweep_writebacks(
    param_bytes: int,
    sweep_duration: float,
    hierarchy: CacheHierarchy,
    base_address: int = 0,
    words_per_store: int = 16,
) -> WritebackTrace:
    """Cycle-free cache-accurate trace: drive the hierarchy store by store.

    Each vectorized store touches ``words_per_store`` FP32 words (an
    AVX512 store writes 16 lanes = one cache line).  Timestamps interpolate
    linearly across the sweep.  The per-iteration flush empties the
    hierarchy at ``sweep_duration``.

    Its job is to be the test oracle of :func:`adam_writeback_chunks`:
    on one LRU level, its times sorted by address equal the closed form's
    plus one line time, clipped to ``sweep_duration`` (the store that
    evicts a line is stamped when it completes, one line after the
    closed form's eviction point).  An oracle stays a plain loop over
    :meth:`~repro.memsim.hierarchy.CacheHierarchy.access`.
    """
    check_int("param_bytes", param_bytes, 1)
    check_int("words_per_store", words_per_store, 1)
    if isinstance(sweep_duration, bool) or not sweep_duration > 0:
        raise ValueError(f"sweep_duration must be positive, got {sweep_duration!r}")
    n_words = -(-param_bytes // 4)
    stride = words_per_store * 4
    n_stores = -(-n_words * 4 // stride)
    # The ADAM update loads grad/m/v and stores param/m/v; only the
    # parameter-region stores matter for the CXL trace, so we model
    # the parameter-array access stream.
    times = []
    addrs = []
    for s in range(n_stores):
        address = base_address + s * stride
        t = (s + 1) / n_stores * sweep_duration
        result = hierarchy.access(address, is_write=True)
        for wb in result.memory_writebacks:
            if base_address <= wb < base_address + param_bytes:
                times.append(t)
                addrs.append(wb)
    for wb in hierarchy.flush():
        if base_address <= wb < base_address + param_bytes:
            times.append(sweep_duration)
            addrs.append(wb)
    return WritebackTrace(np.array(times), np.array(addrs, dtype=np.uint64))

