"""End-to-end determinism: every experiment is reproducible bit-for-bit.

The whole reproduction is seeded; a reviewer rerunning any driver must
get identical rows.  Timing drivers are pure functions of their inputs;
functional drivers thread explicit RNGs.
"""

import numpy as np
import pytest

from repro.experiments import fig2, fig10, fig13, table1, table8
from repro.experiments.fig11_table4 import run_fig11_table4
from repro.experiments.lammps import run_lammps
from repro.mdsim import MDOffloadSimulation
from repro.offload import OffloadTrainer
from repro.tensor.transformer import TinyTransformerLM


class TestTimingDeterminism:
    def test_table1_identical_runs(self):
        assert table1.run_table1() == table1.run_table1()

    def test_fig11_identical_runs(self):
        assert run_fig11_table4() == run_fig11_table4()


class TestFunctionalDeterminism:
    def test_fig2_reproducible(self):
        a = fig2.run_fig2(n_steps=10, seed=3)
        b = fig2.run_fig2(n_steps=10, seed=3)
        assert a.param_means == b.param_means
        assert a.grad_steps == b.grad_steps

    def test_fig2_seed_sensitivity(self):
        a = fig2.run_fig2(n_steps=10, seed=3)
        b = fig2.run_fig2(n_steps=10, seed=4)
        assert a.param_means != b.param_means

    @pytest.mark.slow
    def test_fig10_reproducible(self):
        a = fig10.run_fig10(n_steps=20, act_aft_steps=5, seed=2)
        b = fig10.run_fig10(n_steps=20, act_aft_steps=5, seed=2)
        assert a.baseline_curve == b.baseline_curve
        assert a.teco_curve == b.teco_curve

    @pytest.mark.slow
    def test_fig13_reproducible(self):
        a = fig13.run_fig13(sweep=(0, 20), total_steps=20, seed=1)
        b = fig13.run_fig13(sweep=(0, 20), total_steps=20, seed=1)
        assert a == b

    def test_table8_ratio_reproducible(self):
        assert table8.measured_parameter_ratio(
            seed=0
        ) == table8.measured_parameter_ratio(seed=0)

    def test_lammps_reproducible(self):
        [a] = run_lammps(n_side=3, n_steps=5, seed=2)
        [b] = run_lammps(n_side=3, n_steps=5, seed=2)
        assert a["volume_reduction"] == b["volume_reduction"]
        assert a["low_byte_fraction"] == b["low_byte_fraction"]


class TestTrainerDeterminism:
    def test_identical_seeds_identical_training(self):
        def run():
            model = TinyTransformerLM(
                vocab=16, dim=16, n_heads=2, n_layers=1, max_seq=12,
                rng=np.random.default_rng(5),
            )
            trainer = OffloadTrainer(model, lr=2e-3)
            rng = np.random.default_rng(6)
            batches = [(rng.integers(0, 16, (4, 10)),) for _ in range(8)]
            trainer.train(batches)
            return trainer.arena.snapshot()

        np.testing.assert_array_equal(run(), run())

    def test_md_trajectories_reproducible(self):
        a = MDOffloadSimulation(n_side=3, seed=9)
        b = MDOffloadSimulation(n_side=3, seed=9)
        a.run(5)
        b.run(5)
        np.testing.assert_array_equal(a.positions, b.positions)
