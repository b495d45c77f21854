#!/usr/bin/env python
"""Exhaustive check that GELU's ``_cube`` equals NumPy's float32 ``x ** 3``.

``repro.tensor.functional._cube`` reproduces ``x ** 3`` bit for bit while
skipping NumPy's per-element scalar path on negative lanes; every
functional result hash depends on that.  This script compares the two on
every float32 bit pattern: each magnitude is cubed once with a random sign
and once with the opposite sign, in mixed-sign chunks, so the SIMD and the
scalar lanes are both exercised inside one array.  It exits with status 1
on any bit mismatch.

Run it after any NumPy upgrade (``make check-cube``).  It takes about
20 minutes on one core of a 2-CPU x86-64 host; ``tests/test_gelu_cube.py``
runs the same sweep over a strided sample as part of the test suite.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.tensor.functional import _cube

#: Magnitudes per chunk; the chunk's float64 temporaries stay ~10 MB.
CHUNK = 1 << 20

#: Every non-negative float32 bit pattern (the sign bit is applied here).
N_MAGNITUDES = 1 << 31


def count_mismatches(
    start: int = 0,
    stop: int = N_MAGNITUDES,
    stride: int = 1,
    seed: int = 0,
    progress: bool = False,
) -> int:
    """Bit mismatches between ``_cube(x)`` and ``x ** 3``.

    Covers every ``stride``-th magnitude bit pattern in ``[start, stop)``,
    each with both signs; the defaults cover every float32 bit pattern.
    """
    rng = np.random.default_rng(seed)
    span = CHUNK * stride
    mismatches = 0
    began = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(start, stop, span):
            hi = min(lo + span, stop)
            magnitudes = np.arange(lo, hi, stride, dtype=np.uint32)
            signs = rng.integers(0, 2, magnitudes.size, dtype=np.uint32) << 31
            for flip in (0, 1 << 31):
                x = (magnitudes | (signs ^ flip)).view(np.float32)
                got = _cube(x).view(np.uint32)
                want = (x**3).view(np.uint32)
                mismatches += int(np.count_nonzero(got != want))
            if progress:
                print(
                    f"\r{(hi - start) / (stop - start):7.2%}  {mismatches} mismatches"
                    f"  {time.perf_counter() - began:6.0f} s",
                    end="",
                    flush=True,
                )
    if progress:
        print()
    return mismatches


def main() -> int:
    mismatches = count_mismatches(progress=True)
    print(f"{mismatches} mismatches over all {2 * N_MAGNITUDES} float32 bit patterns")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
