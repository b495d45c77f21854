"""Tests for value-change and communication profilers."""

import numpy as np
import pytest

from repro.models import get_model
from repro.profiling import (
    ValueChangeProfiler,
    classify_snapshot_series,
    communication_fraction_rows,
)


class TestValueChangeProfiler:
    def test_first_observation_returns_none(self):
        p = ValueChangeProfiler()
        assert p.observe(np.zeros(10, dtype=np.float32)) is None

    def test_identical_snapshots(self):
        p = ValueChangeProfiler()
        x = np.ones(100, dtype=np.float32)
        p.observe(x)
        stats = p.observe(x.copy())
        assert stats.changed_fraction == 0.0

    def test_low_byte_perturbation_classified_case1(self):
        p = ValueChangeProfiler()
        x = np.ones(1000, dtype=np.float32)
        p.observe(x)
        y = x.view(np.uint32).copy()
        y += 1  # lowest byte only
        stats = p.observe(y.view(np.float32))
        assert stats.last_byte == pytest.approx(1.0)
        assert stats.low_bytes_dominant

    def test_exponent_change_classified_other(self):
        p = ValueChangeProfiler()
        p.observe(np.ones(10, dtype=np.float32))
        stats = p.observe(np.full(10, 2.0, dtype=np.float32))
        assert stats.other == pytest.approx(1.0)

    def test_shape_change_rejected(self):
        p = ValueChangeProfiler()
        p.observe(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            p.observe(np.zeros(5, dtype=np.float32))

    def test_mean_fractions_requires_history(self):
        with pytest.raises(ValueError):
            ValueChangeProfiler().mean_fractions()

    def test_series_helper(self):
        snaps = [np.full(8, v, dtype=np.float32) for v in (1.0, 1.0, 2.0)]
        history = classify_snapshot_series(snaps)
        assert len(history) == 2
        assert history[0].changed_fraction == 0.0
        assert history[1].changed_fraction == 1.0

    def test_finetuning_updates_are_low_byte_dominated(self):
        """Observation 2's mechanism: small relative ADAM-like updates
        mostly perturb the low mantissa bytes."""
        rng = np.random.default_rng(0)
        p = ValueChangeProfiler()
        x = rng.standard_normal(50_000).astype(np.float32)
        p.observe(x)
        for _ in range(5):
            x = (x.astype(np.float64) * (1 + rng.normal(0, 3e-7, x.size))).astype(
                np.float32
            )
            p.observe(x)
        means = p.mean_fractions()
        assert means["last_byte"] + means["last_two_bytes"] > 0.8


class TestCommProfile:
    def test_rows_match_table1_shape(self):
        rows = communication_fraction_rows(get_model("bert-large-cased"))
        fracs = [r["comm_fraction"] for r in rows]
        assert [r["batch"] for r in rows] == [4.0, 8.0, 16.0, 20.0]
        assert fracs == sorted(fracs, reverse=True)
        assert 0.35 < fracs[0] < 0.55

    def test_split_sums_to_fraction(self):
        rows = communication_fraction_rows(
            get_model("gpt2"), batch_sizes=(4,)
        )
        r = rows[0]
        assert r["grad_fraction"] + r["param_fraction"] == pytest.approx(
            r["comm_fraction"], rel=1e-9, abs=0
        )

    def test_empty_batches_rejected(self):
        with pytest.raises(ValueError):
            communication_fraction_rows(get_model("gpt2"), batch_sizes=())
