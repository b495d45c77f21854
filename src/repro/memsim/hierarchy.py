"""Multi-level cache hierarchy (the paper's gem5-avx Table II config).

The hierarchy chains :class:`~repro.memsim.cache.SetAssociativeCache`
levels; an access walks down until it hits, filling upper levels on the
way back (inclusive fill) and forwarding dirty victims toward memory.
Dirty evictions from the last level are the *main-memory write-backs*
that the CXL home agent inspects (Figure 8) and, for giant-cache lines,
ships over the link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsim.cache import SetAssociativeCache
from repro.utils.units import KIB, MIB

__all__ = [
    "HierarchyAccess",
    "CacheHierarchy",
    "gem5_avx_hierarchy",
]


@dataclass(frozen=True)
class HierarchyAccess:
    """Outcome of one hierarchy access."""

    #: Level index that served the access (len(levels) == memory).
    hit_level: int
    #: Dirty-line addresses that reached main memory because of this access.
    memory_writebacks: tuple[int, ...]


class CacheHierarchy:
    """A chain of cache levels in front of main memory.

    Write-backs cascade: a dirty victim from level *i* is written into
    level *i+1* (possibly evicting there in turn); dirty victims of the
    last level are reported as main-memory write-backs.
    """

    def __init__(self, levels: list[SetAssociativeCache]):
        if not levels:
            raise ValueError("need at least one cache level")
        line = levels[0].line_bytes
        if any(lv.line_bytes != line for lv in levels):
            raise ValueError("all levels must share one line size")
        self.levels = levels
        self.line_bytes = line
        self.memory_reads = 0
        self.memory_writes = 0

    def access(self, address: int, is_write: bool) -> HierarchyAccess:
        """Perform one access; returns which level hit and any memory WBs."""
        wbs: list[int] = []
        hit_level = len(self.levels)
        for i, cache in enumerate(self.levels):
            result = cache.access(address, is_write and i == 0)
            if result.writeback_address is not None:
                self._write_down(i + 1, result.writeback_address, wbs)
            if result.hit:
                hit_level = i
                break
        else:
            self.memory_reads += 1
        # Note: upper levels were already filled by their own misses above.
        self.memory_writes += len(wbs)
        return HierarchyAccess(hit_level=hit_level, memory_writebacks=tuple(wbs))

    def _write_down(self, level: int, line_address: int, wbs: list[int]) -> None:
        """Install a dirty victim into ``level`` (or memory)."""
        if level >= len(self.levels):
            wbs.append(line_address)
            return
        result = self.levels[level].access(line_address, is_write=True)
        if result.writeback_address is not None:
            self._write_down(level + 1, result.writeback_address, wbs)

    def flush(self) -> list[int]:
        """Flush every level; returns line addresses reaching memory."""
        reached: dict[int, None] = {}
        for i, cache in enumerate(self.levels):
            for line in cache.flush():
                # A line flushed from an upper level would be absorbed by a
                # lower level only if present there; flushing all levels
                # sends every dirty copy to memory exactly once.
                reached.setdefault(line)
        self.memory_writes += len(reached)
        return list(reached)

    @property
    def llc(self) -> SetAssociativeCache:
        """The last-level cache."""
        return self.levels[-1]


def gem5_avx_hierarchy(line_bytes: int = 64) -> CacheHierarchy:
    """The Table II cache configuration.

    I-cache 8KB/64B/8-way, L1 D-cache 8KB/64B/8-way, L2 64KB/64B/16-way,
    shared L3 16MB/64B/64-way.  (The instruction cache is irrelevant to
    the data-trace experiments and omitted.)
    """
    return CacheHierarchy(
        [
            SetAssociativeCache(8 * KIB, line_bytes, ways=8, name="L1D"),
            SetAssociativeCache(64 * KIB, line_bytes, ways=16, name="L2"),
            SetAssociativeCache(16 * MIB, line_bytes, ways=64, name="L3"),
        ]
    )
