"""Tests for the Lennard-Jones melt and its offload adaptation."""

import numpy as np
import pytest

from repro.mdsim import (
    LJParams,
    MDOffloadModel,
    MDOffloadSimulation,
    compute_forces,
    cubic_lattice,
    potential_energy,
    velocity_verlet_step,
)
from repro.mdsim.integrate import initialize_velocities, kinetic_energy
from repro.mdsim.lj import neighbor_pairs
from repro.offload.timing import HardwareParams


class TestLattice:
    def test_counts_and_density(self):
        pos, box = cubic_lattice(4, density=0.8442)
        assert pos.shape == (64, 3)
        assert 64 / box**3 == pytest.approx(0.8442)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cubic_lattice(0)
        with pytest.raises(ValueError):
            cubic_lattice(3, density=-1)


class TestForces:
    def test_two_atom_force_matches_analytic(self):
        params = LJParams()
        r = 1.2
        pos = np.array([[0.0, 0, 0], [r, 0, 0]])
        forces, energy = compute_forces(pos, box=100.0, params=params)
        s6 = (1.0 / r) ** 6
        sc6 = (1.0 / params.rcut) ** 6
        expected_e = 4 * (s6**2 - s6) - 4 * (sc6**2 - sc6)
        expected_f = 24 * (2 * s6**2 - s6) / r
        assert energy == pytest.approx(expected_e, rel=1e-12, abs=0)
        assert forces[0, 0] == pytest.approx(-expected_f, rel=1e-12, abs=0)
        assert forces[1, 0] == pytest.approx(expected_f, rel=1e-12, abs=0)

    def test_newton_third_law(self):
        rng = np.random.default_rng(0)
        pos, box = cubic_lattice(3)
        pos += rng.normal(0, 0.05, pos.shape)
        forces, _ = compute_forces(pos % box, box)
        np.testing.assert_allclose(forces.sum(axis=0), np.zeros(3), atol=1e-9)

    def test_cutoff_respected(self):
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])  # beyond rcut=2.5
        forces, energy = compute_forces(pos, box=100.0)
        assert energy == 0.0
        np.testing.assert_array_equal(forces, 0.0)

    def test_cell_list_matches_all_pairs(self):
        """Cell-list neighbor search must produce identical forces to the
        brute-force path (which small boxes fall back to)."""
        rng = np.random.default_rng(1)
        pos, box = cubic_lattice(5)  # large enough for >=3 cells per side
        pos = (pos + rng.normal(0, 0.1, pos.shape)) % box
        f_cell, e_cell = compute_forces(pos, box)
        # brute force reference
        n = pos.shape[0]
        iu, ju = np.triu_indices(n, k=1)
        delta = pos[iu] - pos[ju]
        delta -= box * np.round(delta / box)
        r2 = np.sum(delta**2, axis=1)
        mask = r2 < 2.5**2
        s6 = (1.0 / r2[mask]) ** 3
        sc6 = (1.0 / 2.5) ** 6
        e_ref = float(np.sum(4 * (s6**2 - s6) - 4 * (sc6**2 - sc6)))
        assert e_cell == pytest.approx(e_ref, rel=1e-10, abs=0)

    def test_minimum_image(self):
        """Atoms near opposite box faces interact through the boundary."""
        box = 10.0
        pos = np.array([[0.1, 5, 5], [9.9, 5, 5]])  # distance 0.2 via PBC
        _, energy = compute_forces(pos, box)
        assert energy > 0  # strongly repulsive at r=0.2

    def test_neighbor_pairs_cover_cutoff(self):
        rng = np.random.default_rng(2)
        pos, box = cubic_lattice(5)
        pos = (pos + rng.normal(0, 0.1, pos.shape)) % box
        i, j = neighbor_pairs(pos, box, 2.5)
        listed = set(zip(i.tolist(), j.tolist()))
        n = pos.shape[0]
        for a in range(0, n, 7):
            for b in range(a + 1, n, 11):
                delta = pos[a] - pos[b]
                delta -= box * np.round(delta / box)
                if np.sum(delta**2) < 2.5**2:
                    assert (a, b) in listed or (b, a) in listed


class TestIntegration:
    def test_energy_conservation(self):
        """NVE velocity Verlet conserves total energy to ~1e-3 over a
        short melt run."""
        rng = np.random.default_rng(3)
        pos, box = cubic_lattice(4)
        vel = initialize_velocities(pos.shape[0], 1.44, rng)
        forces, pe = compute_forces(pos, box)
        e0 = pe + kinetic_energy(vel)
        for _ in range(50):
            pos, vel, forces, pe = velocity_verlet_step(
                pos, vel, forces, box, dt=0.002
            )
        e1 = pe + kinetic_energy(vel)
        assert abs(e1 - e0) / abs(e0) < 5e-3

    def test_momentum_zeroed(self):
        rng = np.random.default_rng(4)
        v = initialize_velocities(100, 1.0, rng)
        np.testing.assert_allclose(v.mean(axis=0), np.zeros(3), atol=1e-12)

    def test_invalid_dt(self):
        pos, box = cubic_lattice(2)
        with pytest.raises(ValueError):
            velocity_verlet_step(pos, pos * 0, pos * 0, box, dt=0)


class TestMDOffload:
    def test_runs_and_tracks_volume(self):
        sim = MDOffloadSimulation(n_side=3, dba=False)
        sim.run(5)
        assert len(sim.history) == 5
        assert sim.volume_reduction() == 0.0

    def test_dba_reduces_position_volume(self):
        sim = MDOffloadSimulation(n_side=3, dba=True, dirty_bytes=2)
        sim.run(5)
        red = sim.volume_reduction()
        # positions are half the traffic; halving them saves ~25% minus
        # line-padding; the paper reports 17% total reduction.
        assert 0.10 < red < 0.30

    def test_positions_are_low_byte_dominated(self):
        """The Section VII premise: per-step position deltas mostly touch
        low-order bytes, so DBA applies."""
        sim = MDOffloadSimulation(n_side=4, dba=False, dt=0.002)
        sim.run(10)
        means = sim.profiler.mean_fractions()
        assert means["last_byte"] + means["last_two_bytes"] > 0.5

    def test_dba_physics_stays_bounded(self):
        """DBA-truncated positions must not blow up the simulation."""
        base = MDOffloadSimulation(n_side=3, dba=False, seed=7)
        dba = MDOffloadSimulation(n_side=3, dba=True, seed=7)
        rb = base.run(20)
        rd = dba.run(20)
        assert np.isfinite(rd[-1].potential_energy)
        scale = abs(rb[-1].potential_energy) + 1.0
        assert abs(rd[-1].potential_energy - rb[-1].potential_energy) < 0.1 * scale

    def test_model_reproduces_section7_numbers(self):
        model = MDOffloadModel(HardwareParams.paper_default())
        out = model.improvement(dba_volume_reduction=0.17)
        assert out["improvement"] == pytest.approx(0.215, abs=0.02)
        assert out["cxl_share"] == pytest.approx(0.78, abs=0.03)
        assert out["dba_share"] == pytest.approx(0.22, abs=0.03)

    def test_model_validation(self):
        hw = HardwareParams.paper_default()
        with pytest.raises(ValueError):
            MDOffloadModel(hw, transfer_fraction=0.0)
        with pytest.raises(ValueError):
            MDOffloadModel(hw).improvement(2.0)
