"""Differential fuzz tests locking the batch fast paths to their scalar
references.

Every vectorized path kept for throughput — the byte-gather DBA
packer/merger and trace replay (whole and chunked) — must be
*observationally identical* to the scalar reference it replaces: same
counters, same payload bytes, same replay timings.  These tests drive
both implementations with random inputs (every ``dirty_bytes``, partial
cache lines, arbitrary chunk sizes) and require exact agreement, so a
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
from repro.trace import replay_trace, replay_trace_chunked, replay_trace_scalar


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
        st.sampled_from([1, 7, 100, 1 << 18]),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunked_is_bit_identical(self, n, seed, chunk, start):
        rng = np.random.default_rng(seed)
        trace = WritebackTrace(
            np.sort(rng.random(n)),
            rng.integers(0, 1 << 30, n).astype(np.uint64) * 64,
        )
        link = CXLLinkModel.paper_default()
        whole = replay_trace(trace, link, 2, start)
        chunked = replay_trace_chunked(trace, link, 2, start, chunk_events=chunk)
        assert whole == chunked  # dataclass equality: every field bit-equal

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
        assert vec.finish_time == pytest.approx(ref.finish_time, rel=1e-12)
        assert vec.exposed_time == pytest.approx(
            ref.exposed_time, rel=1e-9, abs=1e-15
        )

    def test_chunked_rejects_bad_chunk(self):
        trace = WritebackTrace(np.empty(0), np.empty(0, dtype=np.uint64))
        with pytest.raises(ValueError):
            replay_trace_chunked(trace, chunk_events=0)
