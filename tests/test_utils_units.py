"""Tests for unit helpers and table formatting."""

import pytest

from repro.utils.tables import format_table
from repro.utils.units import (
    GB,
    MS,
    NS,
    Bandwidth,
    bytes_human,
    seconds_human,
)


class TestBandwidth:
    def test_time_for(self):
        bw = Bandwidth.gb_per_s(16)  # PCIe 3.0 x16
        assert bw.time_for(16 * GB) == pytest.approx(1.0)
        assert bw.time_for(0) == 0.0

    def test_bytes_in(self):
        bw = Bandwidth.gb_per_s(10)
        assert bw.bytes_in(2.0) == pytest.approx(20 * GB)

    def test_scaled_cxl_efficiency(self):
        pcie = Bandwidth.gb_per_s(16)
        cxl = pcie.scaled(0.943)
        assert cxl.bytes_per_second == pytest.approx(16 * GB * 0.943)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Bandwidth(0)
        with pytest.raises(ValueError):
            Bandwidth(-1)

    @pytest.mark.parametrize("bps", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bps):
        # NaN slipped past ``<= 0`` and made every time_for() NaN.
        with pytest.raises(ValueError, match="finite and positive"):
            Bandwidth(bps)

    def test_rejects_negative_amounts(self):
        bw = Bandwidth.gb_per_s(1)
        with pytest.raises(ValueError):
            bw.time_for(-1)
        with pytest.raises(ValueError):
            bw.bytes_in(-1)

    def test_cache_line_time_magnitude(self):
        """A 64B line on ~15 GB/s CXL takes ~4 ns (Section VIII-D)."""
        cxl = Bandwidth.gb_per_s(16).scaled(0.943)
        t = cxl.time_for(64)
        assert 3 * NS < t < 5 * NS


class TestHumanFormats:
    def test_bytes_human(self):
        assert bytes_human(512) == "512.0 B"
        assert bytes_human(2048) == "2.0 KiB"
        assert "MiB" in bytes_human(5 * 2**20)

    def test_seconds_human(self):
        assert seconds_human(2.0).endswith(" s")
        assert seconds_human(5 * MS).endswith(" ms")
        assert seconds_human(3 * NS).endswith(" ns")


class TestFormatTable:
    def test_basic(self):
        out = format_table(
            ["model", "speedup"], [["GPT2", 1.82], ["T5", 1.73]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "model" in lines[1]
        assert "1.820" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_alignment(self):
        out = format_table(["x"], [["longvalue"], ["s"]])
        rows = out.splitlines()
        assert len(rows[1]) >= len("longvalue")


class TestRngSpawn:
    def test_children_independent_and_deterministic(self):
        from repro.utils.rng import make_rng, spawn

        a = spawn(make_rng(7), 3)
        b = spawn(make_rng(7), 3)
        import numpy as np

        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(
                ga.integers(0, 100, 5), gb.integers(0, 100, 5)
            )
        # siblings differ
        x = spawn(make_rng(7), 2)
        assert list(x[0].integers(0, 1 << 30, 4)) != list(
            x[1].integers(0, 1 << 30, 4)
        )

    def test_negative_rejected(self):
        from repro.utils.rng import make_rng, spawn

        with pytest.raises(ValueError):
            spawn(make_rng(), -1)


class TestFlitPacketConsistency:
    def test_header_overheads_within_one_percent(self):
        """The packet model (4B header per 64B slot) and the flit model
        (68B per 64B payload) agree on streaming overhead."""
        from repro.interconnect.flits import streaming_efficiency
        from repro.interconnect.packets import packet_wire_bytes

        n = 1 << 20
        packet_eff = n / packet_wire_bytes(n)
        flit_eff = streaming_efficiency(stream_bytes=n)
        assert abs(packet_eff - flit_eff) < 0.01
