"""Physical-unit constants and helpers.

The simulator keeps time in **seconds** (floats) and sizes in **bytes**
(ints) everywhere; these constants make call sites read like the paper
("16 GB/s PCIe 3.0 x16", "1 ns aggregator delay").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "NS",
    "US",
    "MS",
    "SEC",
    "Bandwidth",
    "bytes_human",
    "seconds_human",
]

# Decimal (vendor-style) sizes — PCIe/CXL bandwidths are quoted decimal.
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

# Binary sizes — memory capacities.
KIB = 2**10
MIB = 2**20
GIB = 2**30

# Times, in seconds.
NS = 1e-9
US = 1e-6
MS = 1e-3
SEC = 1.0


@dataclass(frozen=True)
class Bandwidth:
    """A link or memory bandwidth in bytes per second.

    Provides transfer-time arithmetic so code reads
    ``link.bw.time_for(n_bytes)`` instead of repeating divisions.
    """

    bytes_per_second: float

    def __post_init__(self) -> None:
        bps = self.bytes_per_second
        if not 0 < bps < float("inf"):
            raise ValueError(f"bandwidth must be finite and positive, got {bps}")

    def time_for(self, n_bytes: float) -> float:
        """Seconds needed to move ``n_bytes`` at this bandwidth."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return n_bytes / self.bytes_per_second

    def bytes_in(self, seconds: float) -> float:
        """Bytes movable in ``seconds`` at this bandwidth."""
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        return seconds * self.bytes_per_second

    def scaled(self, factor: float) -> "Bandwidth":
        """A derated/boosted copy (e.g. CXL protocol efficiency)."""
        return Bandwidth(self.bytes_per_second * factor)

    @classmethod
    def gb_per_s(cls, value: float) -> "Bandwidth":
        """Construct from a decimal-GB/s figure."""
        return cls(value * GB)


def bytes_human(n: float) -> str:
    """Render a byte count with a binary suffix (``817.0 MiB``)."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.1f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def seconds_human(t: float) -> str:
    """Render a duration with an adaptive unit (``12.3 ms``)."""
    at = abs(t)
    if at >= 1.0:
        return f"{t:.3f} s"
    if at >= 1e-3:
        return f"{t * 1e3:.3f} ms"
    if at >= 1e-6:
        return f"{t * 1e6:.3f} us"
    return f"{t * 1e9:.3f} ns"
