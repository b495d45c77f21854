"""Memory-access and write-back trace records.

A :class:`WritebackTrace` is the artifact the paper's pipeline passes from
the CPU simulator to the CXL emulator: timestamps and line addresses of
dirty cache-line evictions reaching main memory.  It is stored columnar
(NumPy arrays) so million-line traces stay cheap to build, filter and
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["MemoryAccess", "WritebackEvent", "WritebackTrace"]


@dataclass(frozen=True)
class MemoryAccess:
    """One CPU memory access (post-cache-filtering if desired)."""

    time: float
    address: int
    is_write: bool
    size: int = 64

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")


@dataclass(frozen=True)
class WritebackEvent:
    """One dirty cache-line eviction reaching main memory."""

    time: float
    line_address: int

    def __post_init__(self) -> None:
        if self.line_address < 0:
            raise ValueError("line_address must be non-negative")


class WritebackTrace:
    """Columnar trace of write-back events, sorted by time.

    Parameters
    ----------
    times
        Event timestamps in seconds (float64).
    addresses
        Cache-line addresses (uint64).
    """

    def __init__(self, times: np.ndarray, addresses: np.ndarray):
        times = np.asarray(times, dtype=np.float64)
        addresses = np.asarray(addresses, dtype=np.uint64)
        if times.shape != addresses.shape or times.ndim != 1:
            raise ValueError("times and addresses must be equal-length 1-D")
        # min/max reduce without a temporary, unlike np.isfinite(times):
        # the granularity experiment's trace has ~21M lines.
        if times.size and not (
            np.isfinite(times.min()) and np.isfinite(times.max())
        ):
            raise ValueError("trace times must be finite")
        if times.size and np.any(np.diff(times) < 0):
            order = np.argsort(times, kind="stable")
            times = times[order]
            addresses = addresses[order]
        self.times = times
        self.addresses = addresses

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self):
        for t, a in zip(self.times, self.addresses):
            yield WritebackEvent(float(t), int(a))

    @classmethod
    def from_events(cls, events: list[WritebackEvent]) -> "WritebackTrace":
        """Build a columnar trace from event objects."""
        if not events:
            return cls(np.empty(0), np.empty(0, dtype=np.uint64))
        return cls(
            np.array([e.time for e in events]),
            np.array([e.line_address for e in events], dtype=np.uint64),
        )

    @property
    def duration(self) -> float:
        """Span from first to last event (0 for empty/singleton traces)."""
        if len(self) < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    @property
    def unique_lines(self) -> int:
        """Number of distinct line addresses in the trace."""
        return int(np.unique(self.addresses).size)

    def shifted(self, dt: float) -> "WritebackTrace":
        """Copy with all timestamps offset by ``dt``."""
        return WritebackTrace(self.times + dt, self.addresses.copy())

    def within(self, start: float, end: float) -> "WritebackTrace":
        """Events with ``start <= time < end``."""
        if end < start:
            raise ValueError("end must be >= start")
        mask = (self.times >= start) & (self.times < end)
        return WritebackTrace(self.times[mask], self.addresses[mask])

    def merge(self, other: "WritebackTrace") -> "WritebackTrace":
        """Time-ordered union of two traces."""
        return WritebackTrace(
            np.concatenate([self.times, other.times]),
            np.concatenate([self.addresses, other.addresses]),
        )

    def save(self, path: str | Path) -> None:
        """Write the trace to a compressed .npz file."""
        np.savez_compressed(path, times=self.times, addresses=self.addresses)

    @classmethod
    def load(cls, path: str | Path) -> "WritebackTrace":
        """Read a trace written by :meth:`save`."""
        with np.load(path) as data:
            return cls(data["times"], data["addresses"])
