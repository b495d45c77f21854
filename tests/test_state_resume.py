"""Bit-exact checkpoint/resume: container format, state dicts, harness.

Covers the ``repro.state`` subsystem end to end: the versioned CRC-checked
container, the ``state_dict()`` protocol of every resumable component,
resume equivalence across all trainer modes (including a checkpoint
straddling DBA activation), corruption handling, the refusal of
checkpoints from runs that used a removed training-recipe feature, and
the migration path for seed-era ``np.savez`` checkpoints.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.dba import ActivationPolicy
from repro.dba.activation import default_policy, fresh_policy
from repro.dba.aggregator import WORDS_PER_LINE, Aggregator
from repro.dba.registers import DBARegister
from repro.offload import CommVolume, OffloadTrainer, TrainerMode
from repro.optim import FlatAdam
from repro.state import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    StateMismatchError,
    is_legacy_checkpoint,
    load_state,
    save_state,
)
from repro.state.verify import (
    ResumeCase,
    build_demo_trainer,
    default_suite,
    demo_batches,
    render_verification,
    straddle_case_at,
    verify_resume,
)
from repro.tensor.transformer import TinyTransformerLM
from repro.utils.rng import load_rng_state, make_rng, rng_state_dict


class TestContainer:
    """The binary checkpoint container itself."""

    def test_round_trip_nested_state(self, tmp_path):
        state = {
            "arr": np.arange(7, dtype=np.float32),
            "nested": {"flag": True, "count": 3, "none": None, "s": "x"},
            "list": [1, 2.5, {"inner": np.ones((2, 3), dtype=np.float64)}],
        }
        path = tmp_path / "c.ckpt"
        save_state(path, state, meta={"k": "v"})
        loaded, meta = load_state(path)
        assert meta == {"k": "v"}
        np.testing.assert_array_equal(loaded["arr"], state["arr"])
        assert loaded["nested"] == state["nested"]
        assert loaded["list"][:2] == [1, 2.5]
        np.testing.assert_array_equal(
            loaded["list"][2]["inner"], state["list"][2]["inner"]
        )

    def test_no_tmp_file_left_behind(self, tmp_path):
        save_state(tmp_path / "c.ckpt", {"a": np.zeros(4)})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_state(path, {"v": 1})
        save_state(path, {"v": 2})
        state, _ = load_state(path)
        assert state["v"] == 2

    def test_truncated_file_fails_loudly(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_state(path, {"arr": np.arange(100, dtype=np.float64)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError, match="CRC|truncated"):
            load_state(path)

    def test_bit_flip_fails_crc(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_state(path, {"arr": np.arange(100, dtype=np.float64)})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            load_state(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_state(path, {"v": 1})
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
        # Re-seal the CRC so only the version differs.
        crc = zlib.crc32(bytes(blob[:-4]))
        struct.pack_into("<I", blob, len(blob) - 4, crc)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="format version"):
            load_state(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_state(path)

    def test_legacy_npz_detected_and_refused_by_load_state(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, params=np.zeros(4))
        assert is_legacy_checkpoint(path)
        with pytest.raises(CheckpointError, match="legacy"):
            load_state(path)

    def test_native_file_is_not_legacy(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_state(path, {"v": 1})
        assert not is_legacy_checkpoint(path)


class TestComponentStateDicts:
    """state_dict()/load_state_dict() of the individual components."""

    def test_flat_adam_round_trip(self):
        a = FlatAdam(8, lr=1e-3)
        a.step(np.ones(8, np.float32), np.ones(8, np.float32))
        a.lr = 5e-4  # a changed rate is restored too
        b = FlatAdam(8, lr=1e-3)
        b.load_state_dict(a.state_dict())
        assert b.step_count == 1 and b.lr == 5e-4
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.v, b.v)

    def test_flat_adam_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            FlatAdam(4).load_state_dict(FlatAdam(8).state_dict())

    def test_activation_policy_round_trip(self):
        p = ActivationPolicy(act_aft_steps=2, dirty_bytes=3)
        p.check_activation(5)
        q = ActivationPolicy()
        q.load_state_dict(p.state_dict())
        assert q.active and q.activated_at == 5
        assert q.act_aft_steps == 2 and q.dirty_bytes == 3

    def test_comm_volume_round_trip(self):
        v = CommVolume(param_bytes=10, grad_bytes=20, param_bytes_full_equivalent=40)
        w = CommVolume()
        w.load_state_dict(v.state_dict())
        assert (w.param_bytes, w.grad_bytes, w.param_bytes_full_equivalent) == (
            10,
            20,
            40,
        )

    def test_rng_state_round_trip_resumes_stream(self):
        rng = make_rng(5)
        rng.random(10)
        snap = rng_state_dict(rng)
        expected = rng.random(4)
        other = make_rng(5)
        load_rng_state(other, snap)
        np.testing.assert_array_equal(other.random(4), expected)


SMALL_CASES = [ResumeCase(mode=mode) for mode in TrainerMode]


class TestResumeEquivalence:
    """resume == never stopped, bit-exactly."""

    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
    def test_all_modes_precisions_accumulation(self, case, tmp_path):
        report = verify_resume(
            case, checkpoint_path=tmp_path / "resume.ckpt"
        )
        assert report.ok, report
        assert report.max_param_delta == 0.0
        assert report.max_device_delta == 0.0
        assert report.max_moment_delta == 0.0

    def test_checkpoint_straddles_dba_activation(self, tmp_path):
        """Checkpoint before the activation threshold, resume across it:
        the resumed run must activate at the same step as the
        reference, with identical device-copy divergence."""
        case = straddle_case_at(8)
        assert case.checkpoint_step < case.act_aft_steps < case.n_steps
        report = verify_resume(case, checkpoint_path=tmp_path / "s.ckpt")
        assert report.ok, report

    @pytest.mark.slow
    def test_checkpoint_straddles_paper_step_500(self, tmp_path):
        """The acceptance-criterion case: DBA activates at the paper's
        step 500, the checkpoint lands before it, and resume is still
        bit-exact."""
        case = ResumeCase(
            mode=TrainerMode.TECO_REDUCTION,
            checkpoint_step=497,
            act_aft_steps=500,
            n_steps=506,
        )
        report = verify_resume(case, checkpoint_path=tmp_path / "p.ckpt")
        assert report.ok, report

    def test_render_verification_reports_pass(self):
        reports = [verify_resume(ResumeCase())]
        text = render_verification(reports)
        assert "PASS" in text and "bit-exact" in text

    def test_default_suite_covers_required_grid(self):
        cases = default_suite(include_paper_activation=True)
        plain = [c for c in cases if not c.label]
        assert [c.mode for c in plain] == list(TrainerMode)
        assert any(c.fork_from is TrainerMode.ZERO_OFFLOAD for c in cases)
        straddles = [
            c
            for c in cases
            if c.mode is TrainerMode.TECO_REDUCTION
            and c.checkpoint_step < c.act_aft_steps < c.n_steps
        ]
        assert {c.act_aft_steps for c in straddles} >= {8, 500}


def report_ok(case, tmp_path) -> bool:
    """Run one case and return its bit-exactness verdict."""
    return verify_resume(case, checkpoint_path=tmp_path / "c.ckpt").ok


class TestTrainerCheckpointValidation:
    """Descriptive errors instead of silent wrong resumes."""

    def _ckpt(self, tmp_path, **kwargs):
        trainer = build_demo_trainer(**kwargs)
        trainer.train(demo_batches(3))
        path = tmp_path / "t.ckpt"
        trainer.save_checkpoint(path)
        return path

    def test_mode_mismatch_rejected(self, tmp_path):
        path = self._ckpt(tmp_path, mode=TrainerMode.TECO_REDUCTION)
        other = build_demo_trainer(mode=TrainerMode.ZERO_OFFLOAD)
        with pytest.raises(StateMismatchError, match="mode|trainer runs"):
            other.load_checkpoint(path)

    def test_wrong_param_count_rejected(self, tmp_path):
        path = self._ckpt(tmp_path)
        other = OffloadTrainer(
            TinyTransformerLM(
                vocab=16,
                dim=32,
                n_heads=2,
                n_layers=1,
                max_seq=12,
                rng=np.random.default_rng(9),
            )
        )
        with pytest.raises(ValueError, match="parameter count"):
            other.load_checkpoint(path)

    def test_corrupted_trainer_checkpoint_fails_loudly(self, tmp_path):
        path = self._ckpt(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            build_demo_trainer().load_checkpoint(path)


#: The state keys of the training-recipe features the trainer dropped
#: (mixed precision, gradient accumulation, LR schedules), as a
#: checkpoint written before their removal carries them for a run that
#: used none of them.
PLAIN_RECIPE_KEYS = {
    "mixed_precision": False,
    "accumulation_steps": 1,
    "micro_step": 0,
    "accum": None,
    "loss_scaler": None,
    "lr_schedule": None,
}

#: Values a run that used one of those features wrote, with a word the
#: refusal must name.
USED_FEATURES = [
    ("mixed_precision", True, "mixed-precision"),
    (
        "loss_scaler",
        {
            "scale": 1024.0,
            "growth_interval": 2000,
            "backoff": 0.5,
            "max_scale": 2.0**24,
            "good_steps": 3,
            "overflows": 0,
        },
        "mixed-precision",
    ),
    ("accumulation_steps", 4, "accumulation"),
    ("micro_step", 2, "accumulation"),
    ("accum", np.ones(4, np.float32), "accumulation"),
    (
        "lr_schedule",
        {"kind": "CosineDecay", "config": {"base_lr": 2e-3}},
        "learning-rate schedule",
    ),
]


def recipe_era_state(trainer, **used) -> dict:
    """``trainer.state_dict()`` in the layout written before the recipe
    features were removed: their keys at the plain-run values (or
    ``used``), plus the history's ``skipped`` column."""
    state = {**trainer.state_dict(), **PLAIN_RECIPE_KEYS, **used}
    state["history"]["skipped"] = np.zeros(len(trainer.history), np.bool_)
    return state


class TestRemovedRecipeCheckpoints:
    """Checkpoints from before mixed precision, gradient accumulation and
    LR schedules were removed: plain runs resume, the rest are refused."""

    def test_plain_run_resumes_bit_exactly(self, tmp_path):
        batches = demo_batches(12)
        reference = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        reference.train(batches)
        interrupted = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        interrupted.train(batches[:5])
        path = tmp_path / "old.ckpt"
        save_state(path, recipe_era_state(interrupted))

        resumed = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        resumed.load_checkpoint(path)
        resumed.train(batches[5:])
        np.testing.assert_array_equal(
            resumed.arena.params, reference.arena.params
        )
        np.testing.assert_array_equal(resumed.gpu_params, reference.gpu_params)
        np.testing.assert_array_equal(resumed.optimizer.v, reference.optimizer.v)
        assert resumed.history == reference.history
        assert resumed.volume == reference.volume
        assert any(r.dba_active for r in resumed.history)

    @pytest.mark.parametrize(
        "key, value, feature", USED_FEATURES, ids=[u[0] for u in USED_FEATURES]
    )
    def test_used_feature_is_refused(self, tmp_path, key, value, feature):
        trainer = build_demo_trainer()
        trainer.train(demo_batches(3))
        path = tmp_path / "old.ckpt"
        save_state(path, recipe_era_state(trainer, **{key: value}))
        fresh = build_demo_trainer()
        with pytest.raises(StateMismatchError, match=feature):
            fresh.load_checkpoint(path)
        assert fresh.step_count == 0  # nothing was half-loaded

    @pytest.mark.parametrize(
        "used, error",
        [
            ({}, None),
            ({"mixed_precision": True}, "mixed-precision"),
            ({"accumulation_steps": 4}, "accumulation"),
        ],
        ids=["plain", "mixed-precision", "accumulation"],
    )
    def test_cli_resume_of_recipe_era_demo(self, tmp_path, used, error):
        """``repro resume`` on a ``repro checkpoint`` file written before
        the removal: a plain demo resumes, one that used a removed
        feature fails loudly instead of resuming without it."""
        from repro.cli import main

        trainer = build_demo_trainer(mode=TrainerMode.TECO_CXL)
        trainer.train(demo_batches(4))
        path = tmp_path / "demo.teco-ckpt"
        demo = {
            "mode": "teco-cxl",
            "mixed_precision": False,
            "accumulation_steps": 1,
            "act_aft_steps": 8,
            "seed": 0,
        }
        demo.update(used)
        save_state(
            path,
            recipe_era_state(trainer, **used),
            meta={"writer": "repro.cli.checkpoint", "demo": demo},
        )
        args = ["resume", "--ckpt", str(path), "--steps", "2"]
        if error is None:
            assert main(args) == 0
        else:
            with pytest.raises(StateMismatchError, match=error):
                main(args)


class TestLegacyMigration:
    """Seed-era np.savez checkpoints still load."""

    def _legacy_ckpt(self, tmp_path, trainer):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            params=trainer.arena.params,
            gpu_params=trainer.gpu_params,
            adam_m=trainer.optimizer.m,
            adam_v=trainer.optimizer.v,
            adam_steps=np.int64(trainer.optimizer.step_count),
            step_count=np.int64(trainer.step_count),
            dba_active=np.bool_(trainer.policy.active),
            dba_activated_at=np.int64(
                -1
                if trainer.policy.activated_at is None
                else trainer.policy.activated_at
            ),
        )
        return path

    def test_legacy_fields_restore(self, tmp_path):
        trainer = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        trainer.train(demo_batches(10))
        assert trainer.policy.active
        path = self._legacy_ckpt(tmp_path, trainer)

        fresh = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        fresh.load_checkpoint(path)
        np.testing.assert_array_equal(fresh.arena.params, trainer.arena.params)
        np.testing.assert_array_equal(fresh.gpu_params, trainer.gpu_params)
        np.testing.assert_array_equal(fresh.optimizer.m, trainer.optimizer.m)
        assert fresh.step_count == trainer.step_count
        assert fresh.policy.active
        assert fresh.policy.activated_at == trainer.policy.activated_at

    def test_legacy_continues_training(self, tmp_path):
        trainer = build_demo_trainer()
        trainer.train(demo_batches(4))
        path = self._legacy_ckpt(tmp_path, trainer)
        fresh = build_demo_trainer()
        fresh.load_checkpoint(path)
        fresh.train(demo_batches(2, seed=3))
        assert fresh.step_count == 6

    def test_legacy_wrong_param_count_rejected(self, tmp_path):
        trainer = build_demo_trainer()
        path = self._legacy_ckpt(tmp_path, trainer)
        other = OffloadTrainer(
            TinyTransformerLM(
                vocab=16,
                dim=32,
                n_heads=2,
                n_layers=1,
                max_seq=12,
                rng=np.random.default_rng(9),
            )
        )
        with pytest.raises(ValueError, match="parameter count"):
            other.load_checkpoint(path)


class TestSatelliteFixes:
    """Regression tests for the state-loss and accounting bugs."""

    def test_pack_tensor_excludes_padding_from_byte_count(self):
        agg = Aggregator(DBARegister.paper_default())
        agg.pack_tensor(np.zeros(20, dtype=np.float32))  # 20 words, 2 lines
        assert agg.payload_bytes_produced == 20 * 2  # not 32 * 2

    def test_pack_lines_whole_lines_unchanged(self):
        agg = Aggregator(DBARegister.paper_default())
        agg.pack_lines(np.zeros((5, WORDS_PER_LINE), dtype=np.float32))
        assert agg.payload_bytes_produced == 5 * 32

    def test_pack_tensor_bypass_excludes_padding_too(self):
        agg = Aggregator(DBARegister(enabled=False))
        agg.pack_tensor(np.zeros(20, dtype=np.float32))
        assert agg.payload_bytes_produced == 20 * 4

    def test_trainer_param_bytes_are_true_wire_bytes(self):
        """The demo model's arena is not a multiple of 16 words, so the
        padded-payload bug inflated param_bytes; now it must be exactly
        n_params * dirty_bytes under DBA."""
        trainer = build_demo_trainer(
            mode=TrainerMode.TECO_REDUCTION, act_aft_steps=0
        )
        result = trainer.step(*demo_batches(1)[0])
        assert result.dba_active
        assert result.param_payload_bytes == trainer.arena.n_params * 2
        assert trainer.volume.param_bytes == trainer.arena.n_params * 2

    def test_default_policy_reset_between_tests_a(self):
        """With the autouse fixture, latching the global policy here..."""
        default_policy.check_activation(default_policy.act_aft_steps)
        assert default_policy.active

    def test_default_policy_reset_between_tests_b(self):
        """...must not leak into this (alphabetically later) test."""
        assert not default_policy.active

    def test_fresh_policy_is_isolated(self):
        p = fresh_policy(act_aft_steps=0)
        p.check_activation(0)
        assert p.active
        assert not default_policy.active
        assert p is not fresh_policy(act_aft_steps=0)


class TestVolumeAndScalerSurviveResume:
    """The exact state the seed-era format dropped, asserted directly."""

    def test_comm_volume_counters_survive(self, tmp_path):
        trainer = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        trainer.train(demo_batches(6))
        path = tmp_path / "v.ckpt"
        trainer.save_checkpoint(path)
        fresh = build_demo_trainer(mode=TrainerMode.TECO_REDUCTION)
        assert fresh.volume.total == 0
        fresh.load_checkpoint(path)
        assert fresh.volume.state_dict() == trainer.volume.state_dict()
        assert fresh.volume.param_reduction == trainer.volume.param_reduction

    def test_history_survives(self, tmp_path):
        trainer = build_demo_trainer()
        trainer.train(demo_batches(4))
        path = tmp_path / "h.ckpt"
        trainer.save_checkpoint(path)
        fresh = build_demo_trainer()
        fresh.load_checkpoint(path)
        assert fresh.history == trainer.history
        assert fresh.loss_curve == trainer.loss_curve
