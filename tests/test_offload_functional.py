"""Tests for the flat arena and the functional offload trainer."""

import numpy as np
import pytest

from repro.dba import ActivationPolicy
from repro.models import get_model, make_tiny_proxy
from repro.offload import FlatArena, OffloadTrainer, TrainerMode
from repro.tensor import Linear, Sequential, Tensor
from repro.tensor.transformer import TinyTransformerLM

RNG = lambda s=0: np.random.default_rng(s)


def tiny_lm(seed=0):
    return TinyTransformerLM(
        vocab=16, dim=16, n_heads=2, n_layers=1, max_seq=12, rng=RNG(seed)
    )


def lm_batches(n, seed=1):
    rng = RNG(seed)
    pattern = np.tile(np.arange(16), 4)
    return [
        (np.stack([pattern[j : j + 10] for j in rng.integers(0, 50, 4)]),)
        for _ in range(n)
    ]


class TestFlatArena:
    def test_layout_deterministic(self):
        net = Sequential(Linear(3, 4, RNG()), Linear(4, 2, RNG(1)))
        arena = FlatArena(net)
        names = list(arena.slices)
        assert names == [
            "layers.0.weight",
            "layers.0.bias",
            "layers.1.weight",
            "layers.1.bias",
        ]
        assert arena.n_params == net.num_parameters()

    def test_pull_push_roundtrip(self):
        net = Linear(3, 4, RNG())
        arena = FlatArena(net)
        before = net.weight.data.copy()
        arena.params += 1.0
        arena.push_params()
        np.testing.assert_allclose(net.weight.data, before + 1.0)

    def test_zero_grad_clears_every_parameter(self):
        net = Sequential(Linear(3, 4, RNG()), Linear(4, 2, RNG(1)))
        arena = FlatArena(net)
        net(Tensor(np.ones((2, 3), dtype=np.float32))).sum().backward()
        assert all(p.grad is not None for _, p in net.parameters())
        arena.zero_grad()
        assert all(p.grad is None for _, p in net.parameters())

    def test_push_external_source(self):
        net = Linear(2, 2, RNG())
        arena = FlatArena(net)
        other = np.zeros(arena.n_params, dtype=np.float32)
        arena.push_params(other)
        np.testing.assert_array_equal(net.weight.data, np.zeros((2, 2)))

    def test_collect_grads_zero_for_missing(self):
        net = Linear(2, 2, RNG())
        arena = FlatArena(net)
        net.weight.grad = np.ones((2, 2), dtype=np.float32)
        net.bias.grad = None
        arena.collect_grads()
        assert arena.grads[arena.slices["weight"]].sum() == 4.0
        assert arena.grads[arena.slices["bias"]].sum() == 0.0

    def test_view_aliases_params(self):
        net = Linear(2, 2, RNG())
        arena = FlatArena(net)
        arena.view("bias")[:] = 7.0
        assert np.all(arena.params[arena.slices["bias"]] == 7.0)

    def test_line_addressing(self):
        net = Linear(8, 8, RNG())  # 72 params -> 5 lines
        arena = FlatArena(net)
        assert arena.n_lines == -(-72 * 4 // 64)
        assert arena.line_index_of(0) == 0
        assert arena.line_index_of(16) == 1
        assert list(arena.lines_for_range(0, 17)) == [0, 1]
        assert list(arena.lines_for_range(5, 5)) == []

    def test_bad_indices(self):
        arena = FlatArena(Linear(2, 2, RNG()))
        with pytest.raises(IndexError):
            arena.line_index_of(10**9)
        with pytest.raises(IndexError):
            arena.lines_for_range(5, 2)

    def test_empty_module_rejected(self):
        from repro.tensor.nn import Module

        class Empty(Module):
            pass

        with pytest.raises(ValueError):
            FlatArena(Empty())


class TestOffloadTrainer:
    def test_baseline_loss_decreases(self):
        trainer = OffloadTrainer(tiny_lm(), lr=3e-3)
        results = trainer.train(lm_batches(40))
        assert results[-1].loss < results[0].loss

    def test_teco_cxl_bitwise_identical_to_baseline(self):
        """TECO-CXL changes transfer timing, not numerics: training must
        be bit-identical to ZeRO-Offload."""
        a = OffloadTrainer(tiny_lm(5), mode=TrainerMode.ZERO_OFFLOAD, lr=1e-3)
        b = OffloadTrainer(tiny_lm(5), mode=TrainerMode.TECO_CXL, lr=1e-3)
        batches = lm_batches(10)
        ra = a.train(batches)
        rb = b.train(batches)
        assert [r.loss for r in ra] == [r.loss for r in rb]
        np.testing.assert_array_equal(a.gpu_params, b.gpu_params)

    def test_dba_inactive_before_threshold(self):
        trainer = OffloadTrainer(
            tiny_lm(),
            mode=TrainerMode.TECO_REDUCTION,
            policy=ActivationPolicy(act_aft_steps=5),
        )
        results = trainer.train(lm_batches(8))
        assert [r.dba_active for r in results] == [False] * 5 + [True] * 3

    def test_dba_halves_param_payload(self):
        trainer = OffloadTrainer(
            tiny_lm(),
            mode=TrainerMode.TECO_REDUCTION,
            policy=ActivationPolicy(act_aft_steps=0, dirty_bytes=2),
        )
        r = trainer.step(*lm_batches(1)[0])
        assert r.dba_active
        # 2 of 4 bytes per param (line padding adds a little)
        full = trainer.arena.params.nbytes
        assert r.param_payload_bytes <= full / 2 + 64

    def test_dba_introduces_bounded_divergence(self):
        trainer = OffloadTrainer(
            tiny_lm(),
            mode=TrainerMode.TECO_REDUCTION,
            lr=1e-3,
            policy=ActivationPolicy(act_aft_steps=3, dirty_bytes=2),
        )
        trainer.train(lm_batches(3))
        assert trainer.divergence() == 0.0  # exact before activation
        trainer.train(lm_batches(10, seed=9))
        div = trainer.divergence()
        assert div > 0.0  # DBA is genuinely approximate after activation
        # dirty_bytes=2 keeps 16 mantissa bits: the stale high half-word
        # bounds the error to a small fraction of the value magnitude.
        assert div < np.max(np.abs(trainer.arena.params)) * 0.05 + 1e-3

    def test_dba_finetuning_follows_same_trend(self):
        """Figure 10's claim — in the paper's regime: DBA activates during
        *fine-tuning* of a pre-trained model, where per-step updates are
        small, so loss curves with and without DBA follow the same trend."""
        pre = OffloadTrainer(tiny_lm(11), lr=3e-3)
        pre.train(lm_batches(60, seed=3))
        state = pre.model.state_dict()

        finals = {}
        for mode in (TrainerMode.ZERO_OFFLOAD, TrainerMode.TECO_REDUCTION):
            model = tiny_lm(11)
            model.load_state_dict(state)
            tr = OffloadTrainer(
                model,
                mode=mode,
                lr=3e-4,
                policy=ActivationPolicy(act_aft_steps=5, dirty_bytes=2),
            )
            finals[mode] = tr.train(lm_batches(60, seed=4))[-1].loss
        base = finals[TrainerMode.ZERO_OFFLOAD]
        dba = finals[TrainerMode.TECO_REDUCTION]
        # small impact, no divergence
        assert dba < 4 * base
        assert abs(dba - base) < 0.5

    def test_volume_accounting(self):
        trainer = OffloadTrainer(
            tiny_lm(),
            mode=TrainerMode.TECO_REDUCTION,
            policy=ActivationPolicy(act_aft_steps=0),
        )
        trainer.train(lm_batches(4))
        assert trainer.volume.param_reduction == pytest.approx(0.5, abs=0.05)
        assert trainer.volume.grad_bytes == 4 * trainer.arena.grads.nbytes

    def test_grad_norm_reported(self):
        trainer = OffloadTrainer(tiny_lm(), max_grad_norm=0.1)
        r = trainer.step(*lm_batches(1)[0])
        assert r.grad_norm > 0

    def test_proxy_families_all_trainable(self):
        """Every Table III family proxy runs a step through the trainer."""
        rng = RNG(20)
        cases = {
            "gpt2": (rng.integers(0, 64, (2, 10)),),
            "bert-large-cased": (
                rng.integers(0, 64, (4, 8)),
                rng.integers(0, 2, 4),
            ),
            "t5-large": (
                rng.integers(0, 64, (2, 8)),
                rng.integers(0, 64, (2, 6)),
            ),
        }
        for name, batch in cases.items():
            model = make_tiny_proxy(get_model(name), RNG(21))
            trainer = OffloadTrainer(model)
            result = trainer.step(*batch)
            assert np.isfinite(result.loss), name

    def test_gcnii_proxy_through_trainer(self):
        from repro.tensor.gnn import normalized_adjacency

        rng = RNG(22)
        model = make_tiny_proxy(get_model("gcnii"), rng)
        n = 12
        adj = (rng.random((n, n)) < 0.3).astype(np.float32)
        adj = np.maximum(adj, adj.T)
        feats = rng.standard_normal((n, 16)).astype(np.float32)
        labels = rng.integers(0, 2, n)
        trainer = OffloadTrainer(model)
        r = trainer.step(feats, normalized_adjacency(adj), labels)
        assert np.isfinite(r.loss)
