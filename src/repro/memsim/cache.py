"""Set-associative write-back cache simulator.

Functional (hit/miss/eviction) simulation with LRU replacement, write-back +
write-allocate policy — the configuration of every level in the paper's
gem5-avx setup (Table II).  The simulator reports, per access, whether a
dirty line was evicted; chained through :class:`~repro.memsim.hierarchy.
CacheHierarchy` this produces the main-memory write-back stream that feeds
the CXL emulator.

The implementation keeps per-set NumPy arrays of tags, validity, dirtiness
and LRU counters; single accesses are O(ways) with vectorized tag compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "AccessResult", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Counters accumulated by a cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits as a fraction of accesses (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Line address of a dirty line evicted by this access, if any.
    writeback_address: int | None = None
    #: Line address that had to be fetched from the next level, if any.
    fill_address: int | None = None


class SetAssociativeCache:
    """An LRU set-associative cache with write-back/write-allocate.

    Parameters
    ----------
    size_bytes
        Total capacity.
    line_bytes
        Cache-line size (64 in Table II).
    ways
        Associativity.
    name
        Label for diagnostics.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        ways: int = 8,
        name: str = "cache",
    ):
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("size, line size and ways must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        n_lines = size_bytes // line_bytes
        if n_lines == 0 or size_bytes % line_bytes:
            raise ValueError("size_bytes must be a multiple of line_bytes")
        if n_lines % ways:
            raise ValueError(
                f"{n_lines} lines not divisible by {ways} ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = n_lines // ways
        self._line_shift = line_bytes.bit_length() - 1
        self.stats = CacheStats()
        # Per-(set, way) state.
        self._tags = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._valid = np.zeros((self.n_sets, ways), dtype=bool)
        self._dirty = np.zeros((self.n_sets, ways), dtype=bool)
        self._lru = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._tick = 0

    # -- address helpers ----------------------------------------------------
    def line_address(self, address: int) -> int:
        """The line-aligned base address containing ``address``."""
        return (address >> self._line_shift) << self._line_shift

    def _index_tag(self, address: int) -> tuple[int, int]:
        line = address >> self._line_shift
        return line % self.n_sets, line // self.n_sets

    def _address_of(self, set_idx: int, tag: int) -> int:
        return ((tag * self.n_sets) + set_idx) << self._line_shift

    # -- core ---------------------------------------------------------------
    def access(self, address: int, is_write: bool) -> AccessResult:
        """Access one byte address; returns hit/eviction outcome."""
        if address < 0:
            raise ValueError("address must be non-negative")
        set_idx, tag = self._index_tag(address)
        self._tick += 1
        tags = self._tags[set_idx]
        valid = self._valid[set_idx]
        match = np.flatnonzero(valid & (tags == tag))
        if match.size:
            way = int(match[0])
            self.stats.hits += 1
            self._lru[set_idx, way] = self._tick
            if is_write:
                self._dirty[set_idx, way] = True
            return AccessResult(hit=True)

        # Miss: choose victim (invalid way first, else LRU).
        self.stats.misses += 1
        invalid = np.flatnonzero(~valid)
        if invalid.size:
            way = int(invalid[0])
            writeback = None
        else:
            way = int(np.argmin(self._lru[set_idx]))
            writeback = None
            self.stats.evictions += 1
            if self._dirty[set_idx, way]:
                writeback = self._address_of(set_idx, int(tags[way]))
                self.stats.writebacks += 1
        fill = self.line_address(address)
        self._tags[set_idx, way] = tag
        self._valid[set_idx, way] = True
        self._dirty[set_idx, way] = is_write
        self._lru[set_idx, way] = self._tick
        return AccessResult(hit=False, writeback_address=writeback, fill_address=fill)

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        set_idx, tag = self._index_tag(address)
        return bool(
            np.any(self._valid[set_idx] & (self._tags[set_idx] == tag))
        )

    def is_dirty(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident and dirty."""
        set_idx, tag = self._index_tag(address)
        match = self._valid[set_idx] & (self._tags[set_idx] == tag)
        return bool(np.any(match & self._dirty[set_idx]))

    def invalidate(self, address: int) -> int | None:
        """Drop a line; returns its address if it was dirty (needs WB)."""
        set_idx, tag = self._index_tag(address)
        match = np.flatnonzero(
            self._valid[set_idx] & (self._tags[set_idx] == tag)
        )
        if not match.size:
            return None
        way = int(match[0])
        dirty = bool(self._dirty[set_idx, way])
        self._valid[set_idx, way] = False
        self._dirty[set_idx, way] = False
        if dirty:
            self.stats.writebacks += 1
            return self._address_of(set_idx, tag)
        return None

    def flush(self) -> list[int]:
        """Write back and drop every dirty line; returns their addresses.

        This is the per-training-iteration flush of Section IV-A2 ("The
        flush happens only once at each training iteration to guarantee all
        the updated parameters are sent out").
        """
        out: list[int] = []
        dirty_sets, dirty_ways = np.nonzero(self._valid & self._dirty)
        for s, w in zip(dirty_sets.tolist(), dirty_ways.tolist()):
            out.append(self._address_of(s, int(self._tags[s, w])))
        self.stats.writebacks += len(out)
        self._valid[:] = False
        self._dirty[:] = False
        return out

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently cached."""
        return int(np.count_nonzero(self._valid))
