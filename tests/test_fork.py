"""Forked fine-tune sweeps: ``OffloadTrainer.fork`` and
``finetune_branches`` equal independent runs bit for bit, and the DBA
lane casts equal the per-word references."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dba import ActivationPolicy
from repro.dba.aggregator import Aggregator
from repro.dba.disaggregator import Disaggregator
from repro.dba.registers import DBARegister
from repro.experiments import registry
from repro.experiments.registry import RunContext
from repro.experiments.runner import Branch, finetune_branches
from repro.offload import OffloadTrainer, TrainerMode
from repro.state.verify import DEMO_MODEL, build_demo_trainer, demo_batches
from repro.tensor.transformer import TinyTransformerLM

N_STEPS = 16


def assert_same_run(a: OffloadTrainer, b: OffloadTrainer) -> None:
    """Every piece of trainer state a run's results depend on is equal."""
    np.testing.assert_array_equal(a.arena.params, b.arena.params)
    np.testing.assert_array_equal(a.gpu_params, b.gpu_params)
    # The values an evaluation after training reads.
    np.testing.assert_array_equal(a.arena.model_params(), b.arena.model_params())
    np.testing.assert_array_equal(a.optimizer.m, b.optimizer.m)
    np.testing.assert_array_equal(a.optimizer.v, b.optimizer.v)
    assert a.optimizer.step_count == b.optimizer.step_count
    assert a.history == b.history
    assert a.volume == b.volume
    assert a.step_count == b.step_count
    assert a.mode is b.mode
    assert a.policy.state_dict() == b.policy.state_dict()


def plain(mode, act, batches) -> OffloadTrainer:
    """A trainer run from step 0 under ``mode`` with DBA from ``act``."""
    trainer = build_demo_trainer(mode=mode, act_aft_steps=act)
    trainer.train(batches)
    return trainer


class TestFork:
    @pytest.mark.parametrize("trunk_mode", [
        TrainerMode.TECO_REDUCTION, TrainerMode.ZERO_OFFLOAD,
    ])
    @pytest.mark.parametrize("at", [0, 6, N_STEPS])
    def test_fork_then_run_equals_plain_run(self, trunk_mode, at):
        batches = demo_batches(N_STEPS)
        trunk = build_demo_trainer(mode=trunk_mode, act_aft_steps=N_STEPS)
        trunk.train(batches[:at])
        branch = trunk.fork(
            TrainerMode.TECO_REDUCTION, ActivationPolicy(at, dirty_bytes=2)
        )
        branch.train(batches[at:])
        assert_same_run(branch, plain(TrainerMode.TECO_REDUCTION, at, batches))
        if at < N_STEPS:
            assert any(r.dba_active for r in branch.history)
        # The trunk is untouched by its fork and still runs as itself.
        trunk.train(batches[at:])
        assert_same_run(trunk, plain(trunk_mode, N_STEPS, batches))

    def test_unchanged_fork_after_activation_continues_the_run(self):
        batches = demo_batches(N_STEPS)
        trunk = plain(TrainerMode.TECO_REDUCTION, 4, batches[:8])
        branch = trunk.fork()
        assert branch.policy is not trunk.policy
        branch.train(batches[8:])
        assert_same_run(branch, plain(TrainerMode.TECO_REDUCTION, 4, batches))

    def test_change_after_source_activation_raises(self):
        trunk = plain(TrainerMode.TECO_REDUCTION, 4, demo_batches(8))
        with pytest.raises(ValueError, match="active since step 4"):
            trunk.fork(TrainerMode.ZERO_OFFLOAD)
        with pytest.raises(ValueError, match="active since step 4"):
            trunk.fork(policy=ActivationPolicy(4, dirty_bytes=1))
        with pytest.raises(ValueError, match="active since step 4"):
            trunk.fork(policy=ActivationPolicy(6, dirty_bytes=2))

    def test_branch_that_would_have_activated_raises(self):
        trunk = plain(TrainerMode.ZERO_OFFLOAD, N_STEPS, demo_batches(8))
        with pytest.raises(ValueError, match="would already have activated"):
            trunk.fork(TrainerMode.TECO_REDUCTION, ActivationPolicy(7, 2))
        # The same policy from step 8 on is a legal fork.
        trunk.fork(TrainerMode.TECO_REDUCTION, ActivationPolicy(8, 2))


def demo_model() -> TinyTransformerLM:
    return TinyTransformerLM(rng=np.random.default_rng(3), **DEMO_MODEL)


#: (mode, (act_aft_steps, dirty_bytes) or None for the default policy)
BRANCHES = [
    (TrainerMode.ZERO_OFFLOAD, None),
    (TrainerMode.TECO_REDUCTION, (0, 2)),
    (TrainerMode.TECO_REDUCTION, (5, 1)),
    (TrainerMode.TECO_CXL, None),
    (TrainerMode.TECO_REDUCTION, (9, 3)),
]


def branches(paths=None) -> list[Branch]:
    """``BRANCHES`` with fresh policies, checkpointing to ``paths``."""
    paths = paths or [None] * len(BRANCHES)
    return [
        Branch(mode, None if p is None else ActivationPolicy(*p), path)
        for (mode, p), path in zip(BRANCHES, paths)
    ]


def independent(branch: Branch, state, batches) -> OffloadTrainer:
    """One branch as a run of its own, the way a sweep ran before forks."""
    model = demo_model()
    model.load_state_dict(state)
    trainer = OffloadTrainer(
        model, mode=branch.mode, lr=1e-3, policy=branch.policy
    )
    trainer.train(batches)
    return trainer


class TestFinetuneBranches:
    def _inputs(self):
        pre = demo_model()
        OffloadTrainer(pre, lr=3e-3).train(demo_batches(6, seed=7))
        return pre.state_dict(), demo_batches(N_STEPS, seed=8)

    def test_equals_independent_runs_and_shares_the_trunk(self, monkeypatch):
        state, batches = self._inputs()
        calls = []
        step = OffloadTrainer.step
        monkeypatch.setattr(
            OffloadTrainer, "step",
            lambda self, *b: calls.append(1) or step(self, *b),
        )
        trainers = finetune_branches(
            demo_model, state, batches, branches(), lr=1e-3
        )
        # Trunk 16; the act-0 branch 16 from step 0; forks at 5, 9 and
        # 16 (TECO-CXL never diverges from ZeRO-Offload) run 11, 7, 0.
        assert len(calls) == 16 + 16 + 11 + 7 + 0
        monkeypatch.setattr(OffloadTrainer, "step", step)
        for branch, trainer in zip(branches(), trainers):
            assert_same_run(trainer, independent(branch, state, batches))

    def test_resumes_from_checkpoints_or_step_zero(self, tmp_path):
        state, batches = self._inputs()
        paths = [str(tmp_path / f"b{i}.ckpt") for i in range(len(BRANCHES))]
        finetune_branches(
            demo_model, state, batches, branches(paths), lr=1e-3
        )
        # With the trunk finished, a branch without a checkpoint cannot
        # fork from it any more and runs from step 0.
        (tmp_path / "b2.ckpt").unlink()
        trainers = finetune_branches(
            demo_model, state, batches, branches(paths), lr=1e-3
        )
        for branch, trainer in zip(branches(), trainers):
            assert_same_run(trainer, independent(branch, state, batches))


class _Stop(Exception):
    pass


def test_fig13_checkpoint_dir_resumes_forked_sweep(tmp_path, monkeypatch):
    """Stopped mid-trunk, then again inside a fork, the sweep resumes to
    the uninterrupted result."""
    params = {"sweep": (0, 30, 40), "total_steps": 50}
    reference = registry.run_experiment("fig13", params, seed=1)
    ctx = RunContext(checkpoint_dir=str(tmp_path))
    step = OffloadTrainer.step

    def run_until(n_calls):
        calls = []

        def counted(self, *batch):
            calls.append(1)
            if len(calls) == n_calls:
                raise _Stop
            return step(self, *batch)

        monkeypatch.setattr(OffloadTrainer, "step", counted)
        try:
            with pytest.raises(_Stop):
                registry.run_experiment("fig13", params, seed=1, ctx=ctx)
        finally:
            monkeypatch.setattr(OffloadTrainer, "step", step)

    # Act-0 runs 50 steps, then the trunk (act 40) checkpoints at 25 and
    # stops at step 27, before its fork at 30.
    run_until(50 + 28)
    # Resumed: the trunk goes 25 -> 30, forks act 30 and stops in it.
    run_until(5 + 10)
    resumed = registry.run_experiment("fig13", params, seed=1, ctx=ctx)
    assert resumed.result_hash == reference.result_hash
    assert len(list(tmp_path.glob("fig13-act*-*.teco-ckpt"))) == 3


def special_words() -> np.ndarray:
    """Float32 bit patterns the byte lanes must carry untouched."""
    return np.array(
        [
            0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
            0xFFC00001, 0x7F800001, 0x7FBFFFFF, 0x00000001, 0x807FFFFF,
            0x3F800000, 0xBF7FFFFF, 0x0000FFFF, 0xFFFF0000, 0x00FF00FF,
            0xFFFFFFFF,
        ],
        dtype=np.uint32,
    )


@pytest.mark.parametrize("dirty_bytes", [1, 2, 3, 4])
@pytest.mark.parametrize("n_words", [16 * 5, 16 * 5 + 7])
def test_dba_lane_casts_match_scalar_references(dirty_bytes, n_words):
    rng = np.random.default_rng(dirty_bytes * 100 + n_words)
    words = rng.integers(0, 2**32, n_words, dtype=np.uint64).astype(np.uint32)
    words[:16] = special_words()
    fresh = words.view(np.float32)
    stale = (
        rng.integers(0, 2**32, n_words, dtype=np.uint64)
        .astype(np.uint32)
        .view(np.float32)
    )
    register = DBARegister(enabled=True, dirty_bytes=dirty_bytes)

    agg, agg_ref = Aggregator(register), Aggregator(register)
    payload = agg.pack_tensor(fresh)
    expected = agg_ref.pack_tensor_scalar(fresh)
    np.testing.assert_array_equal(payload, expected)
    assert payload.dtype == np.uint8
    assert agg.payload_bytes_produced == agg_ref.payload_bytes_produced
    assert agg.payload_bytes_produced == n_words * dirty_bytes

    merged = Disaggregator(register).unpack(stale, payload)
    rem = (-n_words) % 16
    lines = np.concatenate([stale, np.zeros(rem, np.float32)]).reshape(-1, 16)
    reference = Disaggregator(register).merge_lines_scalar(lines, expected)
    np.testing.assert_array_equal(
        merged.view(np.uint32), reference.reshape(-1)[:n_words].view(np.uint32)
    )
    # Low bytes from the fresh words, high bytes from the stale ones.
    mask = np.uint32((1 << (8 * dirty_bytes)) - 1)
    np.testing.assert_array_equal(
        merged.view(np.uint32),
        (stale.view(np.uint32) & ~mask) | (words & mask),
    )
