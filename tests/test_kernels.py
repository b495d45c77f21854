"""Parity of the vectorised hot-primitive kernels against their references.

Each hot primitive has one batch implementation, written in numpy at its
only caller: ``SetAssociativeCache.access_block``, ``Aggregator.pack_lines``
and ``Disaggregator.merge_lines``.  The per-element methods that stay in
``src/`` (``access``, ``pack_lines_scalar``, ``merge_lines_scalar``) are
the differential oracles.  Every batch result must be *bit-exact*
against them: same cache stats, same LRU victim tie-breaks, same
write-back order, same DBA bytes.
"""

import numpy as np
import pytest

from repro.dba.aggregator import Aggregator
from repro.dba.disaggregator import Disaggregator
from repro.dba.registers import DBARegister
from repro.memsim.cache import SetAssociativeCache

# Batch implementations checked against the per-word DBA references.
# numpy is the only one; the id keeps the parametrized test names stable.
IMPLS = ["numpy"]


def _stream(seed, n, span=4096, write_frac=0.4):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, span, n, dtype=np.int64)
    writes = rng.random(n) < write_frac
    return addrs, writes


def _cache_state(c):
    return (
        c._tags.copy(),
        c._valid.copy(),
        c._dirty.copy(),
        c._lru.copy(),
        c._tick,
        (c.stats.hits, c.stats.misses, c.stats.evictions, c.stats.writebacks),
    )


def _access_loop(cache, addrs, writes):
    """Per-address ``access`` calls: the reference for ``access_block``."""
    hits, wbs = [], []
    for a, w in zip(addrs, writes):
        r = cache.access(int(a), bool(w))
        hits.append(r.hit)
        wbs.append(-1 if r.writeback_address is None else r.writeback_address)
    return np.array(hits, dtype=bool), np.array(wbs, dtype=np.int64)


class TestCacheKernelParity:
    """``access_block`` == a loop of ``access`` on state, stats and outputs."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "size,line,ways", [(1024, 64, 2), (2048, 64, 8), (512, 32, 1)]
    )
    def test_block_access_fuzz(self, seed, size, line, ways):
        addrs, writes = _stream(seed, 700, span=size * 3)
        loop = SetAssociativeCache(size, line_bytes=line, ways=ways)
        ref_hits, ref_wb = _access_loop(loop, addrs, writes)
        c = SetAssociativeCache(size, line_bytes=line, ways=ways)
        r = c.access_block(addrs, writes)
        np.testing.assert_array_equal(r.hits, ref_hits)
        np.testing.assert_array_equal(r.writeback_address, ref_wb)
        for a, b in zip(_cache_state(c), _cache_state(loop)):
            np.testing.assert_array_equal(a, b)

    def test_block_matches_scalar_access_loop(self):
        """The batch path equals per-address ``access`` calls exactly,
        also when one block is split across several calls."""
        addrs, writes = _stream(7, 400, span=4096)
        loop = SetAssociativeCache(1024, ways=4)
        loop_hits, loop_wb = _access_loop(loop, addrs, writes)
        c = SetAssociativeCache(1024, ways=4)
        first = c.access_block(addrs[:150], writes[:150])
        rest = c.access_block(addrs[150:], writes[150:])
        np.testing.assert_array_equal(
            np.concatenate([first.hits, rest.hits]), loop_hits
        )
        np.testing.assert_array_equal(
            np.concatenate([first.writeback_address, rest.writeback_address]),
            loop_wb,
        )
        for a, b in zip(_cache_state(c), _cache_state(loop)):
            np.testing.assert_array_equal(a, b)


def _register(n_bytes):
    """DBA register with ``effective_dirty_bytes == n_bytes``."""
    if n_bytes == 4:
        return DBARegister(enabled=False)  # bypass: full 4-byte words
    return DBARegister(enabled=True, dirty_bytes=n_bytes)


class TestDBAKernelParity:
    @pytest.mark.parametrize("n_bytes", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", IMPLS)
    def test_pack_matches_scalar_reference(self, n_bytes, name):
        rng = np.random.default_rng(n_bytes)
        lines = rng.standard_normal((5, 16)).astype(np.float32)
        fast, ref = Aggregator(_register(n_bytes)), Aggregator(_register(n_bytes))
        payload = fast.pack_lines(lines)
        expected = ref.pack_lines_scalar(lines)
        np.testing.assert_array_equal(payload, expected, err_msg=name)
        assert fast.lines_processed == ref.lines_processed
        assert fast.payload_bytes_produced == ref.payload_bytes_produced

    @pytest.mark.parametrize("n_bytes", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", IMPLS)
    def test_merge_matches_scalar_reference(self, n_bytes, name):
        rng = np.random.default_rng(100 + n_bytes)
        stale = rng.standard_normal((4, 16)).astype(np.float32)
        fresh = rng.standard_normal((4, 16)).astype(np.float32)
        reg = _register(n_bytes)
        payload = Aggregator(reg).pack_lines(fresh)
        fast = Disaggregator(reg)
        merged = fast.merge_lines(stale, payload)
        ref = Disaggregator(reg)
        expected = ref.merge_lines_scalar(stale, payload)
        np.testing.assert_array_equal(
            merged.view(np.uint32), expected.view(np.uint32), err_msg=name
        )
        assert fast.lines_merged == ref.lines_merged
        assert fast.extra_reads == ref.extra_reads

    @pytest.mark.parametrize("name", IMPLS)
    def test_full_low_bytes_round_trip(self, name):
        """Bypass (4 effective bytes) replaces every word: the merge
        reconstructs ``fresh`` exactly."""
        rng = np.random.default_rng(5)
        stale = rng.standard_normal((3, 16)).astype(np.float32)
        fresh = rng.standard_normal((3, 16)).astype(np.float32)
        reg = _register(4)
        payload = Aggregator(reg).pack_lines(fresh)
        merged = Disaggregator(reg).merge_lines(stale, payload)
        np.testing.assert_array_equal(merged, fresh, err_msg=name)


class TestHierarchyStatsAtSeam:
    def test_batch_stats_equal_scalar_access_loop(self):
        """Block stats == summing per-access scalar stats (the regression
        fence on the hierarchy's stats merge)."""
        from repro.memsim.hierarchy import CacheHierarchy

        def fresh():
            return CacheHierarchy(
                [
                    SetAssociativeCache(256, ways=2, name="l1"),
                    SetAssociativeCache(1024, ways=4, name="l2"),
                ]
            )

        addrs, writes = _stream(29, 500, span=4096)
        loop = fresh()
        for a, w in zip(addrs, writes):
            loop.access(int(a), bool(w))
        batch = fresh()
        batch.access_block(addrs, writes)
        for lc, bc in zip(loop.levels, batch.levels):
            assert (lc.stats.hits, lc.stats.misses, lc.stats.evictions,
                    lc.stats.writebacks) == (
                bc.stats.hits, bc.stats.misses, bc.stats.evictions,
                bc.stats.writebacks,
            )
        assert loop.memory_reads == batch.memory_reads
        assert loop.memory_writes == batch.memory_writes
