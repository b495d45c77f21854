"""Tests for the memory-system simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    CacheHierarchy,
    DRAMModel,
    DRAMTimings,
    SetAssociativeCache,
    WritebackTrace,
    gem5_avx_hierarchy,
)
from repro.memsim.trace import WritebackEvent


class TestCacheBasics:
    def test_geometry(self):
        c = SetAssociativeCache(8 * 1024, line_bytes=64, ways=8)
        assert c.n_sets == 16

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(100, line_bytes=64, ways=8)
        with pytest.raises(ValueError):
            SetAssociativeCache(8 * 1024, line_bytes=60, ways=8)

    def test_miss_then_hit(self):
        c = SetAssociativeCache(1024, 64, 2)
        r1 = c.access(0, is_write=False)
        r2 = c.access(32, is_write=False)  # same line
        assert not r1.hit and r2.hit
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_write_marks_dirty(self):
        c = SetAssociativeCache(1024, 64, 2)
        c.access(0, is_write=True)
        assert c.is_dirty(0)
        c.access(64, is_write=False)
        assert not c.is_dirty(64)

    def test_lru_eviction_order(self):
        # 2-way, target one set: set count = 1024/64/2 = 8 sets
        c = SetAssociativeCache(1024, 64, 2)
        stride = c.n_sets * 64  # same-set addresses
        c.access(0 * stride, True)
        c.access(1 * stride, True)
        c.access(0 * stride, False)  # touch 0 -> 1 becomes LRU
        r = c.access(2 * stride, True)  # evicts line 1
        assert r.writeback_address == 1 * stride
        assert c.contains(0) and not c.contains(stride)

    def test_clean_eviction_no_writeback(self):
        c = SetAssociativeCache(1024, 64, 2)
        stride = c.n_sets * 64
        c.access(0, False)
        c.access(stride, False)
        r = c.access(2 * stride, False)
        assert not r.hit and r.writeback_address is None

    def test_flush_returns_dirty_lines(self):
        c = SetAssociativeCache(1024, 64, 2)
        c.access(0, True)
        c.access(64, False)
        c.access(128, True)
        flushed = sorted(c.flush())
        assert flushed == [0, 128]
        assert c.resident_lines == 0

    def test_invalidate(self):
        c = SetAssociativeCache(1024, 64, 2)
        c.access(0, True)
        assert c.invalidate(0) == 0  # dirty -> returns address
        assert not c.contains(0)
        c.access(64, False)
        assert c.invalidate(64) is None  # clean

    def test_negative_address_rejected(self):
        c = SetAssociativeCache(1024, 64, 2)
        with pytest.raises(ValueError):
            c.access(-64, True)
        assert c.stats.accesses == 0

    @pytest.mark.parametrize(
        "address",
        [1.7, float("nan"), 64.0, np.float64(64.0)],
        ids=["fractional", "nan", "whole", "numpy"],
    )
    def test_float_addresses_rejected_before_any_state_change(self, address):
        c = SetAssociativeCache(1024, 64, 2)
        with pytest.raises(TypeError):
            c.access(address, True)
        assert c.stats.accesses == 0 and c.resident_lines == 0
        assert c._tick == 0

    def test_lru_tie_break_prefers_lowest_way(self):
        """Fresh ways all tie at lru=0: the victim must be way 0 (then 1,
        ...) — the invalid-way-first rule, then the lowest-index LRU-min
        rule."""
        # 2 sets x 2 ways of 64B lines; hammer set 0 with conflicting tags.
        c = SetAssociativeCache(256, 64, 2)
        wbs = [c.access(a, True).writeback_address for a in range(0, 640, 128)]
        # tags 0,1 fill the ways; tag 2 evicts tag 0 (way 0), tag 3
        # evicts tag 1 (way 1), tag 4 evicts tag 2 (way 0 again).
        assert wbs == [None, None, 0, 128, 256]
        assert c._tags[0].tolist() == [4, 3]

    def test_streaming_writes_writeback_once_per_line(self):
        """A streaming write sweep larger than the cache writes each line
        back exactly once — the access pattern of the vectorized ADAM
        update over the parameter array."""
        c = SetAssociativeCache(1024, 64, 2)
        n_lines = 64  # 4 KiB sweep over a 1 KiB cache
        wbs = []
        for i in range(n_lines):
            r = c.access(i * 64, is_write=True)
            if r.writeback_address is not None:
                wbs.append(r.writeback_address)
        wbs.extend(c.flush())
        assert sorted(wbs) == [i * 64 for i in range(n_lines)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 16), st.booleans()),
            max_size=300,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_bounded(self, accesses):
        c = SetAssociativeCache(2048, 64, 4)
        for addr, w in accesses:
            c.access(addr, w)
        assert c.resident_lines <= 2048 // 64
        assert c.stats.accesses == len(accesses)

    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_writeback_conservation(self, addrs):
        """Every line ever written is written back at least once (no lost
        updates), and never more often than it was accessed."""
        c = SetAssociativeCache(1024, 64, 2)
        written = set()
        counts: dict[int, int] = {}
        wbs = []
        for a in addrs:
            line = c.line_address(a)
            written.add(line)
            counts[line] = counts.get(line, 0) + 1
            r = c.access(a, is_write=True)
            if r.writeback_address is not None:
                wbs.append(r.writeback_address)
        wbs.extend(c.flush())
        assert set(wbs) == written
        for line in written:
            assert wbs.count(line) <= counts[line]


class TestHierarchy:
    def test_gem5_config(self):
        h = gem5_avx_hierarchy()
        assert [c.size_bytes for c in h.levels] == [
            8 * 1024,
            64 * 1024,
            16 * 1024 * 1024,
        ]
        assert [c.ways for c in h.levels] == [8, 16, 64]

    def test_l1_hit_after_fill(self):
        h = gem5_avx_hierarchy()
        a1 = h.access(0, False)
        a2 = h.access(0, False)
        assert a1.hit_level == len(h.levels)  # memory
        assert a2.hit_level == 0

    def test_dirty_data_cascades_to_memory(self):
        h = CacheHierarchy(
            [
                SetAssociativeCache(512, 64, 2, name="L1"),
                SetAssociativeCache(1024, 64, 2, name="L2"),
            ]
        )
        n_lines = 100
        wbs = []
        for i in range(n_lines):
            wbs.extend(h.access(i * 64, True).memory_writebacks)
        wbs.extend(h.flush())
        assert set(wbs) == {i * 64 for i in range(n_lines)}

    def test_flush_counts_each_line_once(self):
        h = CacheHierarchy(
            [
                SetAssociativeCache(512, 64, 2),
                SetAssociativeCache(1024, 64, 2),
            ]
        )
        h.access(0, True)
        flushed = h.flush()
        assert flushed.count(0) == 1


class TestWritebackTrace:
    def test_sorting_and_len(self):
        tr = WritebackTrace(np.array([2.0, 1.0]), np.array([128, 64]))
        assert len(tr) == 2
        assert tr.times[0] == 1.0 and tr.addresses[0] == 64

    def test_from_events_roundtrip(self):
        events = [WritebackEvent(0.1, 64), WritebackEvent(0.2, 128)]
        tr = WritebackTrace.from_events(events)
        assert list(tr) == events

    def test_within(self):
        tr = WritebackTrace(np.array([0.0, 1.0, 2.0]), np.array([0, 64, 128]))
        sub = tr.within(0.5, 1.5)
        assert len(sub) == 1 and sub.addresses[0] == 64

    def test_merge_sorted(self):
        a = WritebackTrace(np.array([0.0, 2.0]), np.array([0, 0]))
        b = WritebackTrace(np.array([1.0]), np.array([64]))
        m = a.merge(b)
        assert list(m.times) == [0.0, 1.0, 2.0]

    def test_save_load(self, tmp_path):
        tr = WritebackTrace(np.array([0.0, 1.0]), np.array([0, 64]))
        path = tmp_path / "trace.npz"
        tr.save(path)
        back = WritebackTrace.load(path)
        np.testing.assert_array_equal(back.times, tr.times)
        np.testing.assert_array_equal(back.addresses, tr.addresses)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf")]
    )
    def test_non_finite_times_rejected(self, bad):
        """A NaN would also defeat the sort (every comparison is False)."""
        with pytest.raises(ValueError, match="finite"):
            WritebackTrace([0.3, bad, 0.1], np.arange(3, dtype=np.uint64))
        with pytest.raises(ValueError, match="finite"):
            WritebackTrace([0.0], [0]).shifted(bad)

    def test_unique_lines_and_duration(self):
        tr = WritebackTrace(np.array([0.0, 1.0, 3.0]), np.array([0, 64, 0]))
        assert tr.unique_lines == 2
        assert tr.duration == 3.0


class TestDRAM:
    def test_row_hit_vs_miss(self):
        d = DRAMModel(n_banks=1, row_bytes=1024)
        first = d.access(0)
        second = d.access(64)  # same row
        assert first == d.timings.row_miss_cycles
        assert second == d.timings.row_hit_cycles

    def test_replay_matches_scalar(self):
        addrs = np.arange(0, 64 * 500, 64)
        d1 = DRAMModel()
        scalar = sum(d1.access(int(a)) for a in addrs)
        d2 = DRAMModel()
        vector = d2.replay(addrs)
        assert scalar == vector
        assert d1.row_hits == d2.row_hits

    def test_sequential_beats_shuffled(self):
        rng = np.random.default_rng(0)
        addrs = np.arange(0, 64 * 4096, 64)
        seq = DRAMModel().replay(addrs)
        shuf = DRAMModel().replay(rng.permutation(addrs))
        assert seq < shuf

    def test_extra_read_inflates_cycles(self):
        """Disaggregator adds a read per line update: replaying the trace
        with interleaved reads costs about 2x the cycles (Section VIII-D
        reports 2.48x sequential / 1.9x shuffled against its baseline)."""
        addrs = np.arange(0, 64 * 2048, 64)
        base = DRAMModel().replay(addrs)
        with_reads = DRAMModel().replay(np.repeat(addrs, 2))
        assert 1.5 < with_reads / base < 2.6

    def test_invalid_timings(self):
        with pytest.raises(ValueError):
            DRAMTimings(tRCD=0)
