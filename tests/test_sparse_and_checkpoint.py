"""Tests for trainer checkpointing."""

import numpy as np
import pytest

from repro.dba import ActivationPolicy
from repro.offload import OffloadTrainer, TrainerMode
from repro.tensor.transformer import TinyTransformerLM

RNG = lambda s=0: np.random.default_rng(s)


class TestCheckpointing:
    def _trainer(self, seed=7, mode=TrainerMode.ZERO_OFFLOAD):
        model = TinyTransformerLM(
            vocab=16, dim=16, n_heads=2, n_layers=1, max_seq=12, rng=RNG(seed)
        )
        return OffloadTrainer(
            model, mode=mode, lr=2e-3,
            policy=ActivationPolicy(act_aft_steps=3, dirty_bytes=2),
        )

    def _batches(self, n, seed=8):
        rng = RNG(seed)
        return [(rng.integers(0, 16, (4, 10)),) for _ in range(n)]

    def test_resume_is_bit_exact(self, tmp_path):
        batches = self._batches(10)
        # Uninterrupted reference run.
        ref = self._trainer()
        ref.train(batches)

        # Interrupted run: checkpoint at step 5, resume in a new trainer.
        first = self._trainer()
        first.train(batches[:5])
        ckpt = tmp_path / "ckpt.npz"
        first.save_checkpoint(ckpt)

        resumed = self._trainer()
        resumed.load_checkpoint(ckpt)
        results = resumed.train(batches[5:])

        np.testing.assert_array_equal(resumed.arena.params, ref.arena.params)
        assert results[-1].loss == ref.history[-1].loss
        assert resumed.step_count == ref.step_count

    def test_dba_state_survives_checkpoint(self, tmp_path):
        trainer = self._trainer(mode=TrainerMode.TECO_REDUCTION)
        trainer.train(self._batches(5))
        assert trainer.policy.active
        ckpt = tmp_path / "dba.npz"
        trainer.save_checkpoint(ckpt)

        fresh = self._trainer(mode=TrainerMode.TECO_REDUCTION)
        assert not fresh.policy.active
        fresh.load_checkpoint(ckpt)
        assert fresh.policy.active
        assert fresh.policy.activated_at == trainer.policy.activated_at
        np.testing.assert_array_equal(fresh.gpu_params, trainer.gpu_params)

    def test_mismatched_model_rejected(self, tmp_path):
        trainer = self._trainer()
        ckpt = tmp_path / "x.npz"
        trainer.save_checkpoint(ckpt)
        other = OffloadTrainer(
            TinyTransformerLM(vocab=16, dim=32, n_heads=2, n_layers=1,
                              max_seq=12, rng=RNG(9))
        )
        with pytest.raises(ValueError):
            other.load_checkpoint(ckpt)
