"""Integration tests: every experiment driver reproduces its paper shape.

These run the same code paths as the benchmark harness, at reduced scale
where the full experiment is long.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablation_invalidation,
    comm_volume,
    fig2,
    fig10,
    fig11_table4,
    fig12,
    fig13,
    lammps,
    overheads,
    table1,
    table6,
    table7,
    table8,
)


class TestTable1:
    def test_fractions_decrease_and_match_band(self):
        rows = table1.run_table1()
        fracs = [r["comm_fraction"] for r in rows]
        assert fracs == sorted(fracs, reverse=True)
        for r in rows:
            assert abs(r["comm_fraction"] - r["paper"]) < 0.08

    def test_render(self):
        out = table1.render_table1(table1.run_table1((4,)))
        assert "Table I" in out


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run_fig2(n_steps=25)

    def test_parameters_low_byte_dominated(self, result):
        """Observation 2: most changed parameters change only low bytes."""
        low2 = (
            result.param_means["last_byte"]
            + result.param_means["last_two_bytes"]
        )
        assert low2 > 0.6

    def test_gradients_change_all_bytes(self, result):
        """Figure 2(b): gradients have no dominant low-byte pattern."""
        assert result.grad_means["other"] > 0.5

    def test_per_step_rows_complete(self, result):
        assert len(result.param_steps) == 25
        for row in result.param_steps:
            total = row["last_byte"] + row["last_two_bytes"] + row["other"]
            assert total == pytest.approx(1.0, abs=1e-6) or row[
                "changed_fraction"
            ] == 0.0

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            fig2.run_fig2(n_steps=1)


class TestInvalidationAblation:
    def test_update_always_wins(self):
        rows = ablation_invalidation.run_invalidation_ablation()
        for r in rows:
            assert r["slowdown"] > 0
        avg = ablation_invalidation.average_slowdown(rows)
        assert 0.25 < avg < 0.9  # paper: +56.6% average

    def test_render(self):
        out = ablation_invalidation.render_ablation(
            ablation_invalidation.run_invalidation_ablation()
        )
        assert "average" in out


class TestFig10:
    @pytest.mark.slow
    def test_same_trend(self):
        result = fig10.run_fig10(n_steps=60, act_aft_steps=15)
        assert len(result.baseline_curve) == 60
        assert result.same_trend

    def test_dba_effect_nonzero(self):
        result = fig10.run_fig10(n_steps=60, act_aft_steps=15)
        # after activation the curves are not bit-identical
        post = range(20, 60)
        diffs = [
            abs(result.baseline_curve[i] - result.teco_curve[i]) for i in post
        ]
        assert max(diffs) > 0


class TestFig11Table4:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig11_table4.run_fig11_table4()

    def test_t5_oom_marked(self, rows):
        oom = [r for r in rows if r.get("oom")]
        assert len(oom) == 1
        assert oom[0]["model"] == "t5-large" and oom[0]["batch"] == 16

    def test_gcnii_single_batch(self, rows):
        assert sum(r["model"] == "gcnii" for r in rows) == 1

    def test_speedups_close_to_paper(self, rows):
        for r in rows:
            if r["paper"] is None or r.get("oom"):
                continue
            assert r["reduction_speedup"] == pytest.approx(
                r["paper"], abs=0.35
            ), (r["model"], r["batch"])

    def test_reduction_geq_cxl(self, rows):
        for r in rows:
            if r.get("oom"):
                continue
            assert r["reduction_speedup"] >= r["cxl_speedup"] - 1e-9

    def test_render(self, rows):
        out = fig11_table4.render_speedups(rows)
        assert "OOM" in out


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig12.run_fig12()

    def test_grad_transfer_hidden_at_batch8(self, rows):
        teco8 = [
            r
            for r in rows
            if r["batch"] == 8 and r["system"] != "zero-offload"
        ]
        for r in teco8:
            assert r["grad_transfer_exposed"] < 0.05 * r["grad_transfer_raw"] + 1e-4

    def test_teco_hides_most_gradient_time_at_batch4(self, rows):
        """Paper: TECO hides gradient transfer by at least 69% at small
        batch."""
        r = next(
            r for r in rows if r["batch"] == 4 and r["system"] == "teco-cxl"
        )
        hidden = 1 - r["grad_transfer_exposed"] / r["grad_transfer_raw"]
        assert hidden > 0.69

    def test_dba_hides_param_transfer(self, rows):
        r = next(
            r
            for r in rows
            if r["batch"] == 4 and r["system"] == "teco-reduction"
        )
        assert r["param_transfer_exposed"] < 0.02 * r["param_transfer_raw"] + 1e-4

    def test_render(self, rows):
        assert "fwd+bwd" in fig12.render_fig12(rows)


class TestTable6:
    def test_11b_smallest_speedup(self):
        rows = table6.run_table6()
        by_name = {r["model"]: r["reduction_speedup"] for r in rows}
        assert min(by_name, key=by_name.get) == "gpt2-11b"

    def test_11b_compute_bound(self):
        rows = table6.run_table6()
        r = next(r for r in rows if r["model"] == "gpt2-11b")
        assert r["compute_fraction"] > 0.55  # paper: 63.4%

    def test_speedups_in_band(self):
        for r in table6.run_table6():
            assert 1.1 < r["reduction_speedup"] < 2.1


class TestFig13:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig13.run_fig13(sweep=(0, 30, 60), total_steps=60)

    def test_speedup_decreases_with_later_activation(self, rows):
        speedups = [r["speedup"] for r in rows]
        assert speedups == sorted(speedups, reverse=True)
        assert speedups[0] > 1.4  # paper: 1.63 at step 0
        assert speedups[-1] < speedups[0]

    def test_mixed_speedup_bounds(self):
        s0 = fig13.mixed_speedup(0, 1775)
        s_all = fig13.mixed_speedup(1775, 1775)
        assert s0 > s_all
        with pytest.raises(ValueError):
            fig13.mixed_speedup(2000, 1775)

    def test_perplexities_finite(self, rows):
        assert all(np.isfinite(r["perplexity"]) for r in rows)


class TestTable7:
    def test_ratio_band(self):
        rows = table7.run_table7(n_steps=10_000)
        ratio = rows[0]["hours"] / rows[1]["hours"]
        assert 2.0 < ratio < 4.0  # paper: 2.86x

    def test_render(self):
        assert "ratio" in table7.render_table7(table7.run_table7(1000))


class TestTable8:
    @pytest.fixture(scope="class")
    def rows(self):
        return table8.run_table8()

    def test_lz4_always_slower_than_teco(self, rows):
        for r in rows:
            assert r["normalized_time"] > 1.5  # paper: at least ~1.95x

    def test_dense_ratio_small(self, rows):
        assert rows[0]["measured_dense_ratio"] < 0.36

    def test_four_transformers(self, rows):
        assert len(rows) == 4

    def test_render(self, rows):
        assert "LZ4" in table8.render_table8(rows)


class TestCommVolume:
    def test_headline_numbers(self):
        rows = comm_volume.run_comm_volume()
        avg = comm_volume.average(rows, "comm_overhead_reduction")
        assert avg > 0.85  # paper: 93.7%
        for r in rows:
            assert r["param_volume_reduction"] == pytest.approx(0.5, abs=0.08)
            assert 0.0 < r["dba_perf_contribution"] < 0.12  # paper 0.8-7.3%


class TestOverheads:
    def test_hw_costs_match_paper(self):
        rows = overheads.run_hw_costs()
        by_unit = {r["unit"]: r for r in rows}
        assert by_unit["aggregator"]["power_w"] == pytest.approx(
            0.0127, rel=1e-4, abs=0
        )
        assert by_unit["disaggregator"]["latency_ns"] == pytest.approx(
            1.126, rel=1e-4, abs=0
        )
        for r in rows:
            assert r["pipelined_overhead_ns"] == 0.0

    def test_dram_inflation_band(self):
        out = overheads.run_dram_overhead(n_lines=4096)
        assert 1.8 < out["sequential"] < 2.6  # paper: 2.48x
        assert 1.3 < out["shuffled"] < 2.1  # paper: 1.9x
        assert out["sequential"] > out["shuffled"]

    def test_render(self):
        out = overheads.render_overheads(overheads.run_overheads(n_lines=4096))
        assert "DRAM" in out


class TestLammps:
    def test_section7_shape(self):
        [result] = lammps.run_lammps(n_side=4, n_steps=12)
        assert 0.10 < result["improvement"] < 0.30  # paper: 21.5%
        assert 0.08 < result["volume_reduction"] < 0.30  # paper: 17%
        assert result["cxl_share"] > result["dba_share"]  # paper: 78/22
        assert result["low_byte_fraction"] > 0.4

    def test_render(self):
        out = lammps.render_lammps(lammps.run_lammps(n_side=3, n_steps=6))
        assert "LJ melt" in out
