"""Tests for dirty-byte aggregation: registers, packing, merging, policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dba import (
    ActivationPolicy,
    Aggregator,
    DBARegister,
    Disaggregator,
)
from repro.dba.aggregator import AGGREGATOR_LATENCY, WORDS_PER_LINE
from repro.dba.disaggregator import DISAGGREGATOR_LATENCY
from repro.dba.hw import (
    ASIC_RATIOS,
    amortized_line_overhead,
    paper_aggregator,
    paper_disaggregator,
)
from repro.utils.bits import low_byte_mask

lines_arrays = hnp.arrays(
    dtype=np.float32,
    shape=st.integers(1, 32).map(lambda n: (n, WORDS_PER_LINE)),
    elements=st.floats(width=32, allow_nan=False),
)


class TestDBARegister:
    def test_paper_default_encoding(self):
        reg = DBARegister.paper_default()
        assert reg.encode() == 0b1010
        assert reg.enabled and reg.dirty_bytes == 2

    def test_decode_roundtrip(self):
        for enabled in (False, True):
            for db in range(1, 5):
                reg = DBARegister(enabled=enabled, dirty_bytes=db)
                assert DBARegister.decode(reg.encode()) == reg

    def test_disabled_effective_bytes(self):
        reg = DBARegister(enabled=False, dirty_bytes=2)
        assert reg.effective_dirty_bytes == 4
        assert reg.payload_fraction == 1.0

    def test_enabled_payload_fraction(self):
        assert DBARegister.paper_default().payload_fraction == 0.5

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            DBARegister(dirty_bytes=5)
        with pytest.raises(ValueError):
            DBARegister(enabled=True, dirty_bytes=0)
        with pytest.raises(ValueError):
            DBARegister.decode(16)
        with pytest.raises(ValueError):
            DBARegister.decode(0b0111)  # dirty field 7 > 4


class TestAggregator:
    def test_payload_size_default(self):
        agg = Aggregator(DBARegister.paper_default())
        lines = np.zeros((3, WORDS_PER_LINE), dtype=np.float32)
        payload = agg.pack_lines(lines)
        assert payload.shape == (3, 32)
        assert agg.payload_bytes_per_line() == 32

    def test_bypass_sends_full_lines(self):
        agg = Aggregator(DBARegister(enabled=False))
        lines = np.ones((2, WORDS_PER_LINE), dtype=np.float32)
        payload = agg.pack_lines(lines)
        assert payload.shape == (2, 64)
        assert agg.latency == 0.0

    def test_known_bytes(self):
        """Word 0x11223344 with dirty_bytes=2 -> payload bytes 0x44, 0x33."""
        agg = Aggregator(DBARegister.paper_default())
        lines = np.full(
            (1, WORDS_PER_LINE), 0x11223344, dtype=np.uint32
        ).view(np.float32)
        payload = agg.pack_lines(lines)
        assert payload[0, 0] == 0x44 and payload[0, 1] == 0x33

    def test_bad_shape(self):
        agg = Aggregator()
        with pytest.raises(ValueError):
            agg.pack_lines(np.zeros((2, 8), dtype=np.float32))

    def test_counters(self):
        agg = Aggregator(DBARegister.paper_default())
        agg.pack_lines(np.zeros((5, WORDS_PER_LINE), dtype=np.float32))
        assert agg.lines_processed == 5
        assert agg.payload_bytes_produced == 5 * 32

    def test_pack_tensor_pads(self):
        agg = Aggregator(DBARegister.paper_default())
        payload = agg.pack_tensor(np.zeros(20, dtype=np.float32))
        assert payload.shape == (2, 32)  # 20 words -> 2 lines

    @pytest.mark.parametrize("db", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n_words",
        # Straddle line boundaries in every way: exact multiples, one
        # short, one over, mid-line, and a single word.
        [1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100],
    )
    def test_pack_tensor_payload_accounting(self, db, n_words):
        """``payload_bytes_produced`` counts only *tensor* bytes.

        ``pack_tensor`` pads the last partial line with zero words to make
        whole cache lines, but zero-padding never crosses the wire, so the
        counter must equal ``tensor_payload_bytes(n_words)`` — i.e.
        ``n_words * effective_dirty_bytes`` exactly — for the vectorized
        and scalar packers alike (they share the accounting path).
        """
        reg = DBARegister(enabled=True, dirty_bytes=db)
        tensor = np.arange(1, n_words + 1, dtype=np.float32)
        for pack in ("pack_tensor", "pack_tensor_scalar"):
            agg = Aggregator(reg)
            payload = getattr(agg, pack)(tensor)
            n_lines = -(-n_words // WORDS_PER_LINE)
            assert payload.shape == (n_lines, WORDS_PER_LINE * db)
            assert agg.lines_processed == n_lines
            assert agg.payload_bytes_produced == agg.tensor_payload_bytes(
                n_words
            )
            assert agg.payload_bytes_produced == n_words * db

    def test_pack_tensor_accounting_accumulates(self):
        """Sequential packs keep the padding-free sum, mixed shapes."""
        agg = Aggregator(DBARegister(enabled=True, dirty_bytes=2))
        agg.pack_tensor(np.zeros(17, dtype=np.float32))
        agg.pack_tensor(np.zeros(32, dtype=np.float32))
        agg.pack_tensor(np.zeros(3, dtype=np.float32))
        assert agg.payload_bytes_produced == (17 + 32 + 3) * 2
        assert agg.lines_processed == 2 + 2 + 1


class TestDisaggregatorRoundTrip:
    @given(lines_arrays, st.integers(1, 4))
    @settings(max_examples=40)
    def test_low_bytes_travel_high_bytes_stay(self, fresh, db):
        """Core DBA invariant: after aggregate+merge, every word equals
        (stale high bytes | fresh low bytes)."""
        reg = DBARegister(enabled=True, dirty_bytes=db)
        rng = np.random.default_rng(0)
        stale = rng.standard_normal(fresh.shape).astype(np.float32)
        payload = Aggregator(reg).pack_lines(fresh)
        merged = Disaggregator(reg).merge_lines(stale, payload)
        mask = low_byte_mask(db)
        mw = merged.view(np.uint32)
        fw = fresh.view(np.uint32)
        sw = stale.view(np.uint32)
        np.testing.assert_array_equal(mw & mask, fw & mask)
        np.testing.assert_array_equal(mw & ~mask, sw & ~mask)

    @given(lines_arrays)
    @settings(max_examples=30)
    def test_four_bytes_is_lossless(self, fresh):
        reg = DBARegister(enabled=True, dirty_bytes=4)
        stale = np.zeros_like(fresh)
        payload = Aggregator(reg).pack_lines(fresh)
        merged = Disaggregator(reg).merge_lines(stale, payload)
        np.testing.assert_array_equal(
            merged.view(np.uint32), fresh.view(np.uint32)
        )

    def test_four_byte_unpack_is_the_bitwise_identity(self):
        """The trainer's 4-byte DBA transfer, ``unpack(stale,
        pack_tensor(fresh))``, returns ``fresh`` bit for bit whatever the
        stale copy holds: specials (signed zeros, infinities, NaNs with
        payloads, subnormals), uniformly random words, and a partial
        final line.  So a ``dirty_bytes=4`` run's device copy is the
        master copy, as in a run without DBA (dirty-bytes reuses its
        baseline for that row)."""
        specials = np.array(
            [
                0x00000000, 0x80000000,  # +-0
                0x7F800000, 0xFF800000,  # +-inf
                0x7FC00000, 0xFFC00001,  # quiet NaNs, one with a payload
                0x7F800001, 0xFFBFFFFF,  # signalling NaNs
                0x00000001, 0x807FFFFF,  # smallest / largest subnormal
                0x7F7FFFFF, 0xFF7FFFFF,  # +-max finite
                0x3F800000, 0xBF800000,  # +-1
            ],
            dtype=np.uint32,
        )
        rng = np.random.default_rng(0)
        noise = rng.integers(0, 2**32, 4 * WORDS_PER_LINE + 5, dtype=np.uint32)
        reg = DBARegister(enabled=True, dirty_bytes=4)
        for words in (specials, noise, np.concatenate([specials, noise])):
            assert words.size % WORDS_PER_LINE  # a partial final line
            fresh = words.view(np.float32)
            for stale_words in (
                np.zeros_like(words),
                np.full_like(words, 0xFFFFFFFF),
                rng.integers(0, 2**32, words.size, dtype=np.uint32),
            ):
                payload = Aggregator(reg).pack_tensor(fresh)
                merged = Disaggregator(reg).unpack(
                    stale_words.view(np.float32), payload
                )
                assert merged.shape == fresh.shape
                np.testing.assert_array_equal(merged.view(np.uint32), words)

    def test_small_update_reconstructed_exactly(self):
        """If the true update only touches low bytes, DBA is lossless —
        the empirical common case of Observation 2."""
        reg = DBARegister.paper_default()
        stale = np.ones((4, WORDS_PER_LINE), dtype=np.float32)
        fresh_words = stale.view(np.uint32).copy()
        fresh_words += 37  # perturb low mantissa bytes only
        fresh = fresh_words.view(np.float32)
        payload = Aggregator(reg).pack_lines(fresh)
        merged = Disaggregator(reg).merge_lines(stale, payload)
        np.testing.assert_array_equal(merged, fresh)

    def test_exponent_change_is_approximated(self):
        """When the exponent byte changes, DBA keeps the stale exponent:
        the approximation the paper's accuracy study quantifies."""
        reg = DBARegister.paper_default()
        stale = np.full((1, WORDS_PER_LINE), 1.0, dtype=np.float32)
        fresh = np.full((1, WORDS_PER_LINE), 2.0, dtype=np.float32)
        payload = Aggregator(reg).pack_lines(fresh)
        merged = Disaggregator(reg).merge_lines(stale, payload)
        assert not np.array_equal(merged, fresh)  # lossy here
        # exponent (high bytes) from stale:
        mask = low_byte_mask(2)
        np.testing.assert_array_equal(
            merged.view(np.uint32) & ~mask, stale.view(np.uint32) & ~mask
        )

    def test_payload_shape_checked(self):
        reg = DBARegister.paper_default()
        dis = Disaggregator(reg)
        with pytest.raises(ValueError):
            dis.merge_lines(
                np.zeros((2, WORDS_PER_LINE), dtype=np.float32),
                np.zeros((2, 64), dtype=np.uint8),
            )

    def test_merge_tensor_roundtrip_nonmultiple(self):
        reg = DBARegister(enabled=True, dirty_bytes=4)
        fresh = np.arange(21, dtype=np.float32)
        stale = np.zeros(21, dtype=np.float32)
        payload = Aggregator(reg).pack_tensor(fresh)
        merged = Disaggregator(reg).merge_tensor(stale, payload)
        np.testing.assert_array_equal(merged, fresh)

    def test_extra_read_accounting(self):
        reg = DBARegister.paper_default()
        dis = Disaggregator(reg)
        stale = np.zeros((7, WORDS_PER_LINE), dtype=np.float32)
        payload = Aggregator(reg).pack_lines(stale)
        dis.merge_lines(stale, payload)
        assert dis.extra_reads == 7


class TestActivationPolicy:
    def test_inactive_before_threshold(self):
        p = ActivationPolicy(act_aft_steps=500)
        assert not p.check_activation(0)
        assert not p.check_activation(499)
        assert p.check_activation(500)
        assert p.activated_at == 500

    def test_sticky(self):
        p = ActivationPolicy(act_aft_steps=10)
        p.check_activation(10)
        assert p.check_activation(5)  # stays on even for odd call order

    def test_zero_threshold_immediate(self):
        p = ActivationPolicy(act_aft_steps=0)
        assert p.check_activation(0)

    def test_register_reflects_state(self):
        p = ActivationPolicy(act_aft_steps=1, dirty_bytes=3)
        assert not p.register().enabled
        p.check_activation(1)
        reg = p.register()
        assert reg.enabled and reg.dirty_bytes == 3

    def test_reset(self):
        p = ActivationPolicy(act_aft_steps=0)
        p.check_activation(0)
        p.reset()
        assert not p.active and p.activated_at is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ActivationPolicy(act_aft_steps=-1)
        with pytest.raises(ValueError):
            ActivationPolicy(dirty_bytes=0)
        with pytest.raises(ValueError):
            ActivationPolicy().check_activation(-1)


class TestHardwareModel:
    def test_paper_scaled_power(self):
        agg = paper_aggregator().to_asic()
        dis = paper_disaggregator().to_asic()
        assert agg.power_w == pytest.approx(0.0127, rel=1e-6, abs=0)
        assert dis.power_w == pytest.approx(0.017, rel=1e-6, abs=0)

    def test_paper_scaled_latency(self):
        agg = paper_aggregator().to_asic()
        dis = paper_disaggregator().to_asic()
        assert agg.latency_s == pytest.approx(1.28e-9, rel=1e-6, abs=0)
        assert dis.latency_s == pytest.approx(1.126e-9, rel=1e-6, abs=0)
        assert agg.latency_s == pytest.approx(AGGREGATOR_LATENCY, rel=1e-6, abs=0)
        assert dis.latency_s == pytest.approx(DISAGGREGATOR_LATENCY, rel=1e-6, abs=0)

    def test_ratios(self):
        assert (ASIC_RATIOS.area, ASIC_RATIOS.power, ASIC_RATIOS.delay) == (
            33.0,
            14.0,
            3.5,
        )

    def test_pipelined_overhead_is_zero(self):
        """1.28 ns unit latency hides behind ~4 ns wire time."""
        assert amortized_line_overhead(1.28e-9, 4e-9) == 0.0
        assert amortized_line_overhead(5e-9, 4e-9) == pytest.approx(1e-9)


class TestMergeDesignJustification:
    """Negative control: why the Disaggregator must merge with the stale
    *resident copy* (Section V-C's requirement that 'there is an old copy
    of the parameters in the accelerator memory')."""

    def test_merging_with_zeros_destroys_values(self):
        """If the high bytes came from zeros instead of the stale copy,
        every reconstructed value would collapse to a denormal-scale
        garbage number — DBA is only sound because the receiver holds
        last step's data."""
        import numpy as np

        from repro.utils.bits import merge_low_bytes

        rng = np.random.default_rng(0)
        fresh = rng.standard_normal(1024).astype(np.float32)
        stale_good = (fresh.astype(np.float64) * (1 + 1e-5)).astype(
            np.float32
        )
        with_stale = merge_low_bytes(stale_good, fresh, 2)
        with_zeros = merge_low_bytes(np.zeros_like(fresh), fresh, 2)

        err_stale = np.max(np.abs(with_stale - fresh))
        err_zeros = np.max(np.abs(with_zeros - fresh))
        assert err_stale < 0.05 * np.max(np.abs(fresh))
        assert err_zeros > 0.9 * np.max(np.abs(fresh))  # catastrophic

    def test_dba_unsound_without_prior_sync(self):
        """A device copy that never received the pre-activation full
        transfers diverges wildly: activation after warm-up is essential
        (the act_aft_steps > 0 design)."""
        import numpy as np

        from repro.dba import Aggregator, DBARegister, Disaggregator

        rng = np.random.default_rng(1)
        reg = DBARegister.paper_default()
        cpu_master = rng.standard_normal(256).astype(np.float32)
        synced_device = cpu_master.copy()
        unsynced_device = rng.standard_normal(256).astype(np.float32)

        payload = Aggregator(reg).pack_tensor(cpu_master)
        good = Disaggregator(reg).merge_tensor(synced_device, payload)
        bad = Disaggregator(reg).merge_tensor(unsynced_device, payload)
        assert np.max(np.abs(good - cpu_master)) < 1e-6
        assert np.max(np.abs(bad - cpu_master)) > 0.1


def _dirty_bytes_sites():
    """Every constructor/call that takes a DBA ``dirty_bytes`` setting,
    as ``name -> fn(dirty_bytes)``."""
    from repro.core.api import TecoConfig
    from repro.interconnect.packets import CacheLinePayload
    from repro.memsim.trace import WritebackTrace
    from repro.models import get_model
    from repro.offload import SystemKind, TECOEngine
    from repro.offload.cluster import ClusterEngine
    from repro.offload.group_offload import ActivationOffloadEngine
    from repro.offload.parallel import ClusterParams, DataParallelEngine
    from repro.trace.replay import replay_trace

    spec = get_model("bert-large-cased")
    trace = WritebackTrace(np.linspace(0.0, 1e-6, 4), np.arange(4) * 64)
    kind = SystemKind.TECO_REDUCTION
    return {
        "ActivationPolicy": lambda db: ActivationPolicy(dirty_bytes=db),
        "ActivationPolicy.load_state_dict": lambda db: ActivationPolicy()
        .load_state_dict({**ActivationPolicy().state_dict(), "dirty_bytes": db}),
        "CacheLinePayload": lambda db: CacheLinePayload(0, dirty_bytes=db),
        "TecoConfig": lambda db: TecoConfig(dirty_bytes=db),
        "TECOEngine": lambda db: TECOEngine(spec, 4, dba=True, dirty_bytes=db),
        "DataParallelEngine": lambda db: DataParallelEngine(
            kind, spec, 4, ClusterParams(n_gpus=1), dirty_bytes=db
        ),
        "ClusterEngine": lambda db: ClusterEngine(
            kind, spec, 4, ClusterParams(n_gpus=1), dirty_bytes=db
        ),
        "ActivationOffloadEngine": lambda db: ActivationOffloadEngine(
            spec, 4, dba=True, dirty_bytes=db
        ),
        "replay_trace": lambda db: replay_trace(trace, dirty_bytes=db),
    }


class TestDirtyBytesCheck:
    """One rule at every site: an integer (not ``bool``) in 1..4."""

    @pytest.mark.parametrize("site", sorted(_dirty_bytes_sites()))
    @pytest.mark.parametrize("bad", [0, 5, 2.5, True], ids=repr)
    def test_every_site_rejects(self, site, bad):
        with pytest.raises(ValueError, match="dirty_bytes"):
            _dirty_bytes_sites()[site](bad)

    @pytest.mark.parametrize("site", sorted(_dirty_bytes_sites()))
    def test_every_site_accepts_integers(self, site):
        for good in (1, 2, 3, 4, np.int64(2)):
            _dirty_bytes_sites()[site](good)

    def test_check_returns_a_plain_int(self):
        from repro.dba import check_dirty_bytes

        value = check_dirty_bytes(np.int64(3))
        assert value == 3 and type(value) is int
