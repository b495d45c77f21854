"""Tests for modules, attention, transformer and GCNII models."""

import numpy as np
import pytest

from repro.tensor import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Sequential,
    Tensor,
)
from repro.tensor.attention import MultiHeadAttention, causal_mask
from repro.tensor.gnn import GCNII, normalized_adjacency
from repro.tensor.transformer import (
    TinySeq2Seq,
    TinyTransformerClassifier,
    TinyTransformerLM,
    TransformerStack,
)
from repro.optim import Adam

RNG = lambda s=0: np.random.default_rng(s)


class TestModules:
    def test_linear_shapes_and_grads(self):
        lin = Linear(4, 3, RNG())
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        y = lin(x)
        assert y.shape == (2, 3)
        y.sum().backward()
        assert lin.weight.grad is not None and lin.bias.grad is not None

    def test_parameter_names_deterministic(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2, RNG())
                self.b = Linear(2, 2, RNG(1))

        names = [n for n, _ in Net().parameters()]
        assert names == ["a.weight", "a.bias", "b.weight", "b.bias"]

    def test_num_parameters(self):
        lin = Linear(4, 3, RNG())
        assert lin.num_parameters() == 4 * 3 + 3

    def test_layernorm_normalizes(self):
        ln = LayerNorm(8)
        x = Tensor(RNG().standard_normal((5, 8)).astype(np.float32) * 7 + 3)
        y = ln(x).data
        np.testing.assert_allclose(y.mean(-1), np.zeros(5), atol=1e-4)
        np.testing.assert_allclose(y.std(-1), np.ones(5), atol=1e-2)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
    def test_layernorm_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            LayerNorm(4, eps=eps)

    def test_layernorm_gradcheck(self):
        ln = LayerNorm(4)
        x = Tensor(
            RNG(3).standard_normal((2, 4)).astype(np.float32),
            requires_grad=True,
        )
        (ln(x) * Tensor(np.arange(4, dtype=np.float32))).sum().backward()
        assert x.grad is not None
        assert np.all(np.isfinite(x.grad))

    def test_embedding_lookup(self):
        emb = Embedding(10, 4, RNG())
        out = emb(np.array([[1, 2], [3, 1]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.data[0, 0], emb.weight.data[1])

    def test_state_dict_roundtrip(self):
        net = Sequential(Linear(3, 4, RNG()), Linear(4, 2, RNG(1)))
        state = net.state_dict()
        net2 = Sequential(Linear(3, 4, RNG(2)), Linear(4, 2, RNG(3)))
        net2.load_state_dict(state)
        x = Tensor(np.ones((1, 3), dtype=np.float32))
        np.testing.assert_allclose(net(x).data, net2(x).data, rtol=1e-6)

    def test_state_dict_mismatch(self):
        net = Linear(3, 4, RNG())
        with pytest.raises(KeyError):
            net.load_state_dict({"bogus": np.zeros(1)})

    def test_train_eval_propagates(self):
        net = Sequential(Dropout(0.5, RNG()), Linear(2, 2, RNG()))
        net.eval()
        assert not net.layers[0].training

    def test_zero_grad(self):
        lin = Linear(2, 2, RNG())
        lin(Tensor(np.ones((1, 2), dtype=np.float32))).sum().backward()
        lin.zero_grad()
        assert lin.weight.grad is None


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadAttention(8, 2, RNG())
        x = Tensor(RNG(1).standard_normal((2, 5, 8)).astype(np.float32))
        assert attn(x).shape == (2, 5, 8)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(9, 2, RNG())

    def test_causal_mask_blocks_future(self):
        """With a causal mask, output at position t must not depend on
        tokens after t."""
        attn = MultiHeadAttention(8, 2, RNG(2))
        x1 = RNG(3).standard_normal((1, 4, 8)).astype(np.float32)
        x2 = x1.copy()
        x2[0, 3] += 10.0  # perturb the last token only
        m = causal_mask(4)
        y1 = attn(Tensor(x1), mask=m).data
        y2 = attn(Tensor(x2), mask=m).data
        np.testing.assert_allclose(y1[0, :3], y2[0, :3], rtol=1e-4, atol=1e-5)
        assert not np.allclose(y1[0, 3], y2[0, 3])

    def test_cross_attention_uses_memory(self):
        attn = MultiHeadAttention(8, 2, RNG(4))
        q = Tensor(RNG(5).standard_normal((1, 3, 8)).astype(np.float32))
        kv1 = Tensor(RNG(6).standard_normal((1, 6, 8)).astype(np.float32))
        kv2 = Tensor(RNG(7).standard_normal((1, 6, 8)).astype(np.float32))
        assert not np.allclose(attn(q, kv=kv1).data, attn(q, kv=kv2).data)

    def test_gradients_flow_to_all_projections(self):
        attn = MultiHeadAttention(8, 2, RNG(8))
        x = Tensor(RNG(9).standard_normal((1, 3, 8)).astype(np.float32))
        attn(x).sum().backward()
        for name, p in attn.parameters():
            assert p.grad is not None, name


class TestTransformerModels:
    def test_lm_forward_shape(self):
        lm = TinyTransformerLM(vocab=50, dim=16, n_heads=2, n_layers=2,
                               max_seq=12, rng=RNG())
        ids = RNG(1).integers(0, 50, (3, 8))
        assert lm(ids).shape == (3, 8, 50)

    def test_lm_trains_on_repetitive_data(self):
        """A tiny LM must be able to overfit a short periodic stream."""
        rng = RNG(2)
        lm = TinyTransformerLM(vocab=8, dim=32, n_heads=2, n_layers=2,
                               max_seq=16, rng=rng)
        pattern = np.tile(np.arange(8), 8)
        batch = np.stack([pattern[i : i + 12] for i in range(4)])
        opt = Adam(lm.parameter_list(), lr=3e-3)
        first = lm.loss(batch).item()
        for _ in range(60):
            opt.zero_grad()
            loss = lm.loss(batch)
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.3

    def test_share_layers_reduces_parameters(self):
        """Albert-style sharing: same depth, ~1/n the block parameters."""
        full = TransformerStack(16, 2, 4, RNG(3), share_layers=False)
        shared = TransformerStack(16, 2, 4, RNG(4), share_layers=True)
        assert shared.num_parameters() * 3 < full.num_parameters()

    def test_shared_stack_forward_works(self):
        stack = TransformerStack(16, 2, 4, RNG(5), share_layers=True)
        x = Tensor(RNG(6).standard_normal((2, 5, 16)).astype(np.float32))
        assert stack(x).shape == (2, 5, 16)

    def test_classifier_learns_parity_of_first_token(self):
        rng = RNG(7)
        clf = TinyTransformerClassifier(
            vocab=10, dim=16, n_heads=2, n_layers=1, max_seq=8,
            n_classes=2, rng=rng,
        )
        ids = rng.integers(0, 10, (32, 6))
        labels = ids[:, 0] % 2
        opt = Adam(clf.parameter_list(), lr=3e-3)
        for _ in range(80):
            opt.zero_grad()
            clf.loss(ids, labels).backward()
            opt.step()
        assert clf.accuracy(ids, labels) > 0.9

    def test_seq2seq_shapes_and_training_signal(self):
        rng = RNG(8)
        model = TinySeq2Seq(vocab=12, dim=16, n_heads=2, n_layers=1,
                            max_seq=10, rng=rng)
        src = rng.integers(0, 12, (2, 6))
        tgt = rng.integers(0, 12, (2, 5))
        logits = model(src, tgt)
        assert logits.shape == (2, 5, 12)
        loss = model.loss(src, tgt)
        loss.backward()
        grads = [p.grad is not None for _, p in model.parameters()]
        assert all(grads)

    def test_sequence_too_long_rejected(self):
        lm = TinyTransformerLM(vocab=10, dim=8, n_heads=2, n_layers=1,
                               max_seq=4, rng=RNG())
        with pytest.raises(ValueError):
            lm(np.zeros((1, 6), dtype=int))

    def test_perplexity_positive(self):
        lm = TinyTransformerLM(vocab=10, dim=8, n_heads=2, n_layers=1,
                               max_seq=8, rng=RNG())
        ppl = lm.perplexity(RNG(1).integers(0, 10, (2, 6)))
        assert ppl > 1.0


class TestGCNII:
    def _toy_graph(self, rng, n=20, d=8, classes=3):
        adj = (rng.random((n, n)) < 0.2).astype(np.float32)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0)
        feats = rng.standard_normal((n, d)).astype(np.float32)
        labels = rng.integers(0, classes, n)
        return feats, normalized_adjacency(adj), labels

    def test_normalized_adjacency_rows(self):
        adj = np.array([[0, 1], [1, 0]], dtype=np.float32)
        a_hat = normalized_adjacency(adj)
        assert a_hat.shape == (2, 2)
        # symmetric and bounded
        np.testing.assert_allclose(a_hat, a_hat.T)
        assert np.all(a_hat <= 1.0 + 1e-6)

    def test_bad_adjacency(self):
        with pytest.raises(ValueError):
            normalized_adjacency(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            normalized_adjacency(-np.ones((2, 2)))

    def test_forward_shape(self):
        rng = RNG(10)
        feats, a_hat, labels = self._toy_graph(rng)
        model = GCNII(8, 16, 3, n_layers=4, rng=rng)
        assert model(feats, a_hat).shape == (20, 3)

    def test_full_graph_training_improves(self):
        rng = RNG(11)
        feats, a_hat, labels = self._toy_graph(rng)
        model = GCNII(8, 16, 3, n_layers=2, rng=rng)
        opt = Adam(model.parameter_list(), lr=5e-3)
        first = model.loss(feats, a_hat, labels).item()
        for _ in range(60):
            opt.zero_grad()
            model.loss(feats, a_hat, labels).backward()
            opt.step()
        assert model.loss(feats, a_hat, labels).item() < first * 0.7

    def test_deep_stack_stability(self):
        """GCNII's initial-residual keeps 16-layer stacks finite."""
        rng = RNG(12)
        feats, a_hat, labels = self._toy_graph(rng)
        model = GCNII(8, 16, 3, n_layers=16, rng=rng)
        out = model(feats, a_hat)
        assert np.all(np.isfinite(out.data))
