"""Giant-cache region mapping (Section IV-A1).

A part of the accelerator's global memory is mapped into the CXL coherence
domain via the giant-cache model: its size is configured once before
training via a resizable Base Address Register (BAR), sized "large enough to
accommodate tensors transferred between accelerator and CPU" — for
ZeRO-Offload, the parameter bytes plus the gradient buffer.

:class:`AddressMap` plays the role of the Aggregator's per-region "address
registers": contiguous tensor allocations in CPU physical address space,
each flagged as giant-cache-mapped or not, consulted by the home agent on
every write-back (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interconnect.packets import CACHE_LINE_BYTES

__all__ = ["GiantCacheRegion", "AddressMap"]


def _align_up(n: int, granule: int) -> int:
    return -(-n // granule) * granule


@dataclass(frozen=True)
class GiantCacheRegion:
    """One contiguous giant-cache-mapped address range."""

    base: int
    size: int
    name: str = "region"

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise ValueError("base must be >= 0 and size > 0")
        if self.base % CACHE_LINE_BYTES or self.size % CACHE_LINE_BYTES:
            raise ValueError("region must be cache-line aligned")

    @property
    def end(self) -> int:
        """One past the last byte address of the region."""
        return self.base + self.size

    @property
    def n_lines(self) -> int:
        """Number of cache lines the region spans."""
        return self.size // CACHE_LINE_BYTES

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this region."""
        return self.base <= address < self.end

    def lines(self) -> range:
        """All line addresses in the region."""
        return range(self.base, self.end, CACHE_LINE_BYTES)


class AddressMap:
    """Allocator of tensor regions in the CPU address space.

    Tracks which regions are mapped into the giant cache.  The pair of
    address registers per cached region of Section V-B is exactly one
    ``(base, end)`` entry here.
    """

    def __init__(self, base: int = 1 << 30):
        if base % CACHE_LINE_BYTES:
            raise ValueError("base must be cache-line aligned")
        self._next = base
        self.regions: dict[str, GiantCacheRegion] = {}
        self._cached_names: set[str] = set()

    def allocate(
        self, name: str, size_bytes: int, *, giant_cache: bool
    ) -> GiantCacheRegion:
        """Allocate a contiguous, line-aligned region."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        size = _align_up(size_bytes, CACHE_LINE_BYTES)
        region = GiantCacheRegion(base=self._next, size=size, name=name)
        self._next = region.end
        self.regions[name] = region
        if giant_cache:
            self._cached_names.add(name)
        return region

    def is_giant_cached(self, address: int) -> bool:
        """The home agent's Figure-8 check: is this line in the domain?"""
        return any(
            self.regions[n].contains(address) for n in self._cached_names
        )

    @property
    def giant_cache_bytes(self) -> int:
        """Total giant-cache footprint — the BAR size to configure."""
        return sum(self.regions[n].size for n in self._cached_names)

    @property
    def giant_cache_regions(self) -> list[GiantCacheRegion]:
        """All giant-cache-mapped regions, sorted by name."""
        return [self.regions[n] for n in sorted(self._cached_names)]


def required_giant_cache_bytes(
    parameter_bytes: int, gradient_buffer_bytes: int
) -> int:
    """Giant-cache size rule for ZeRO-Offload (Section IV-A1).

    "this size is the size of parameters in the accelerator plus the size
    of the gradient buffer".
    """
    if parameter_bytes < 0 or gradient_buffer_bytes < 0:
        raise ValueError("sizes must be non-negative")
    return _align_up(parameter_bytes, CACHE_LINE_BYTES) + _align_up(
        gradient_buffer_bytes, CACHE_LINE_BYTES
    )
