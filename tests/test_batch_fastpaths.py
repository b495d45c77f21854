"""Differential fuzz tests locking the batch fast paths to their scalar
references.

Every vectorized path kept for throughput — the byte-gather DBA
packer/merger, trace replay (whole and streamed) and the streamed
write-back chunk source — must be *observationally identical* to the
reference it replaces: same counters, same payload bytes, same replay
timings, same trace times.  These tests drive both implementations with
random inputs (every ``dirty_bytes``, partial cache lines, arbitrary
split points) and require exact agreement, so a
future "optimization" that drifts semantically fails loudly instead of
silently skewing every experiment downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dba import Aggregator, DBARegister, Disaggregator
from repro.interconnect.cxl import CXLLinkModel
from repro.memsim import WritebackTrace
from repro.trace import (
    adam_writeback_chunks,
    adam_writeback_trace,
    replay_trace,
    replay_trace_scalar,
)


class TestDBADifferential:
    @given(
        st.integers(1, 4),
        st.integers(1, 130),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip_matches_scalar(self, db, n_words, seed):
        """Vectorized pack/unpack ≡ per-word reference at every
        ``dirty_bytes``, including partial last cache lines."""
        rng = np.random.default_rng(seed)
        reg = DBARegister(enabled=True, dirty_bytes=db)
        tensor = rng.standard_normal(n_words).astype(np.float32)
        stale = rng.standard_normal(n_words).astype(np.float32)

        fast_agg, ref_agg = Aggregator(reg), Aggregator(reg)
        fast_payload = fast_agg.pack_tensor(tensor)
        ref_payload = ref_agg.pack_tensor_scalar(tensor)
        assert np.array_equal(fast_payload, ref_payload)
        assert fast_agg.payload_bytes_produced == ref_agg.payload_bytes_produced
        assert fast_agg.lines_processed == ref_agg.lines_processed

        fast_dis, ref_dis = Disaggregator(reg), Disaggregator(reg)
        fast_merged = fast_dis.unpack(stale, fast_payload)
        pad = (-n_words) % 16
        padded_stale = np.concatenate(
            [stale, np.zeros(pad, dtype=np.float32)]
        ).reshape(-1, 16)
        ref_merged = ref_dis.merge_lines_scalar(padded_stale, ref_payload)
        assert np.array_equal(
            fast_merged.view(np.uint32),
            ref_merged.reshape(-1)[:n_words].view(np.uint32),
        )
        assert fast_dis.lines_merged == ref_dis.lines_merged
        assert fast_dis.extra_reads == ref_dis.extra_reads
        if db == 4:  # full words on the wire -> lossless round trip
            assert np.array_equal(fast_merged, tensor)

    def test_bypass_register_identical(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(35).astype(np.float32)
        fast = Aggregator(DBARegister()).pack_tensor(t)
        ref = Aggregator(DBARegister()).pack_tensor_scalar(t)
        assert np.array_equal(fast, ref)
        assert fast.shape[1] == 64  # full lines when DBA is off


class TestReplayDifferential:
    @given(
        st.integers(1, 2000),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2000), max_size=12),
        st.integers(1, 4),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_is_bit_identical(self, n, seed, cuts, db, start):
        """Replaying the times split at arbitrary points (empty chunks
        included) folds to exactly the whole trace's result."""
        rng = np.random.default_rng(seed)
        trace = WritebackTrace(
            np.sort(rng.random(n)),
            rng.integers(0, 1 << 30, n).astype(np.uint64) * 64,
        )
        link = CXLLinkModel.paper_default()
        chunks = np.split(trace.times, sorted(min(c, n) for c in cuts))
        whole = replay_trace(trace, link, db, start)
        streamed = replay_trace(chunks, link, db, start)
        assert whole == streamed  # dataclass equality: every field bit-equal

    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_vectorized_matches_scalar_recursion(self, n, seed):
        rng = np.random.default_rng(seed)
        trace = WritebackTrace(
            np.sort(rng.random(n)),
            rng.integers(0, 1 << 20, n).astype(np.uint64) * 64,
        )
        link = CXLLinkModel.paper_default()
        vec = replay_trace(trace, link, 2)
        ref = replay_trace_scalar(trace, link, 2)
        assert vec.n_lines == ref.n_lines
        assert vec.wire_bytes == ref.wire_bytes
        assert vec.finish_time == pytest.approx(ref.finish_time, rel=1e-12, abs=0)
        assert vec.exposed_time == pytest.approx(
            ref.exposed_time, rel=1e-9, abs=1e-15
        )

    def test_chunk_source_rejects_bad_block_lines(self):
        for block_lines in (0, -1):
            with pytest.raises(ValueError, match="block_lines"):
                adam_writeback_chunks(64 * 10, 1.0, block_lines=block_lines)


class TestChunkSourceDifferential:
    N_LINES = 1000
    LLC_LINES = 100

    @pytest.mark.parametrize("block_lines", [1, 7, 1 << 18])
    @pytest.mark.parametrize("chunk_lines", [1, 3, 64, 0])
    def test_blocks_concatenate_to_full_trace(self, block_lines, chunk_lines):
        """The streamed blocks are, byte for byte, the full trace's times
        quantized the way the whole-trace path did it: indexed by each
        line's chunk end, or all at sweep end for ``chunk_lines=0``."""
        n, sweep = self.N_LINES, 0.37
        full = adam_writeback_trace(
            64 * n - 5, sweep, llc_bytes=64 * self.LLC_LINES
        ).times
        if chunk_lines == 0:
            expected = np.full(n, sweep)
        else:
            idx = np.arange(n)
            chunk_end = np.minimum(
                ((idx // chunk_lines) + 1) * chunk_lines - 1, n - 1
            )
            expected = full[chunk_end]
        blocks = adam_writeback_chunks(
            64 * n - 5,
            sweep,
            llc_bytes=64 * self.LLC_LINES,
            chunk_lines=chunk_lines,
            block_lines=block_lines,
        )
        assert np.concatenate(list(blocks)).tobytes() == expected.tobytes()
