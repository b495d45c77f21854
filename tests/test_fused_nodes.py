"""Fused autograd nodes against the graphs they replace, bit for bit.

``F.linear``, ``F.layer_norm``, ``F.attention`` and ``F.cross_entropy``
each record one node.  The oracles below build the same computation from
the generic ``Tensor`` ops and the public ``F.softmax``/``F.log_softmax``/
``F.where_mask``.  Every result hash depends on the fused nodes matching
them exactly, so outputs and every parent's ``.grad`` are compared as
``uint32`` bit patterns, not with a tolerance.
"""

import contextlib

import numpy as np
import pytest

from repro.tensor import LayerNorm, Linear, Tensor, no_grad
from repro.tensor import functional as F
from repro.tensor.attention import MultiHeadAttention, causal_mask
from repro.tensor.gnn import GCNII, normalized_adjacency
from repro.tensor.span import TinySpanExtractor
from repro.tensor.transformer import (
    TinySeq2Seq,
    TinyTransformerClassifier,
    TinyTransformerLM,
)


# -- the composed graphs ---------------------------------------------------------
def composed_linear(x, weight, bias=None):
    y = x @ weight
    return y if bias is None else y + bias


def composed_layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * gamma + beta


def composed_attention(q, k, v, n_heads, mask=None):
    b, tq, dim = q.shape
    head_dim = dim // n_heads

    def split(t):
        return t.reshape(b, t.shape[1], n_heads, head_dim).swapaxes(1, 2)

    scores = (split(q) @ split(k).swapaxes(-1, -2)) * (
        1.0 / float(np.sqrt(head_dim))
    )
    if mask is not None:
        scores = F.where_mask(scores, mask, -1e9)
    ctx = F.softmax(scores, axis=-1) @ split(v)
    return ctx.swapaxes(1, 2).reshape(b, tq, dim)


def composed_cross_entropy(logits, targets, ignore_index=None):
    targets = np.asarray(targets)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
    else:
        keep = np.ones(flat_targets.shape, dtype=bool)
    n_keep = max(int(keep.sum()), 1)
    logp = F.log_softmax(flat_logits, axis=-1)
    rows = np.arange(flat_targets.size)
    picked = logp[rows, np.where(keep, flat_targets, 0)]
    weights = Tensor(keep.astype(np.float32) / np.float32(n_keep))
    return -(picked * weights).sum()


COMPOSED = {
    "linear": composed_linear,
    "layer_norm": composed_layer_norm,
    "attention": composed_attention,
    "cross_entropy": composed_cross_entropy,
}


@contextlib.contextmanager
def composed_graphs(monkeypatch):
    """Route every module through the composed graphs for one block."""
    with monkeypatch.context() as m:
        for name, fn in COMPOSED.items():
            m.setattr(F, name, fn)
        yield


# -- helpers -------------------------------------------------------------------
def bits(a):
    return np.asarray(a, dtype=np.float32).view(np.uint32)


def assert_same_bits(got, want, what=""):
    if want is None:
        assert got is None, what
        return
    assert got is not None, what
    assert got.shape == want.shape, what
    np.testing.assert_array_equal(bits(got), bits(want), err_msg=what)


def leaves(arrays, requires_grad=True):
    """Fresh leaf tensors; ``requires_grad`` may be one flag per array."""
    flags = (
        requires_grad
        if isinstance(requires_grad, (list, tuple))
        else [requires_grad] * len(arrays)
    )
    return [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]


def run_both(fused, composed, arrays, requires_grad=True, seed=0):
    """Run ``fused`` and ``composed`` on fresh leaves of ``arrays``,
    backpropagate the same random output gradient through both and
    compare the outputs and every leaf's gradient bit for bit."""
    results = []
    for fn in (fused, composed):
        ts = leaves(arrays, requires_grad)
        out = fn(*ts)
        if out.requires_grad:
            rng = np.random.default_rng(seed)
            out.backward(rng.standard_normal(out.shape).astype(np.float32))
        results.append((out, [t.grad for t in ts]))
    (out_f, grads_f), (out_c, grads_c) = results
    assert out_f.requires_grad == out_c.requires_grad
    assert_same_bits(out_f.data, out_c.data, "output")
    for i, (gf, gc) in enumerate(zip(grads_f, grads_c)):
        assert_same_bits(gf, gc, f"grad of input {i}")
    return out_f


def model_grads(model, loss_fn):
    """Loss value and every parameter gradient after one backward."""
    model.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.data.copy(), {n: p.grad.copy() for n, p in model.parameters()}


def assert_model_matches(monkeypatch, model, loss_fn):
    loss_f, grads_f = model_grads(model, loss_fn)
    with composed_graphs(monkeypatch):
        loss_c, grads_c = model_grads(model, loss_fn)
    assert_same_bits(loss_f, loss_c, "loss")
    assert grads_f.keys() == grads_c.keys()
    for name in grads_f:
        assert_same_bits(grads_f[name], grads_c[name], name)


def rand(rng, *shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


# -- Linear ----------------------------------------------------------------------
class TestLinear:
    @pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_composed(self, shape, bias):
        rng = np.random.default_rng(1)
        arrays = [rand(rng, *shape), rand(rng, 6, 7)]
        if bias:
            arrays.append(rand(rng, 7))
        run_both(F.linear, composed_linear, arrays)

    def test_input_with_a_second_consumer(self):
        # x feeds the node and a residual-style product; its gradient
        # sums both contributions in the composed graph's order.
        rng = np.random.default_rng(2)
        arrays = [rand(rng, 2, 3, 6), rand(rng, 6, 6), rand(rng, 6)]

        def build(lin):
            def fn(x0, w, b):
                x = x0 * 1.5
                return x + lin(x, w, b)

            return fn

        run_both(build(F.linear), build(composed_linear), arrays)

    @pytest.mark.parametrize(
        "flags", [(False, True, True), (True, False, False), (False, False, True)]
    )
    def test_inputs_without_grad(self, flags):
        rng = np.random.default_rng(3)
        arrays = [rand(rng, 2, 3, 6), rand(rng, 6, 5), rand(rng, 5)]
        run_both(F.linear, composed_linear, arrays, requires_grad=list(flags))

    def test_rejects_wrong_input_width(self):
        lin = Linear(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"4.*\(2, 5\)"):
            lin(Tensor(np.ones((2, 5), dtype=np.float32)))


# -- LayerNorm -------------------------------------------------------------------
class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(4, 8), (2, 5, 16), (3, 1)])
    def test_matches_composed(self, shape):
        rng = np.random.default_rng(4)
        d = shape[-1]
        arrays = [rand(rng, *shape, scale=3.0), rand(rng, d), rand(rng, d)]
        run_both(
            lambda x, g, b: F.layer_norm(x, g, b, 1e-5),
            lambda x, g, b: composed_layer_norm(x, g, b, 1e-5),
            arrays,
        )

    def test_residual_input(self):
        # The pre-LN pattern ``x + f(ln(x))``: x already holds the
        # residual gradient when the norm sends its two contributions.
        rng = np.random.default_rng(5)
        arrays = [rand(rng, 2, 6, 8, scale=2.0), rand(rng, 8), rand(rng, 8)]

        def build(ln):
            def fn(x0, g, b):
                x = x0 * 1.5
                return x + ln(x, g, b, 1e-5) * ln(x, g, b, 1e-5)

            return fn

        run_both(build(F.layer_norm), build(composed_layer_norm), arrays)

    @pytest.mark.parametrize("flags", [(False, True, True), (True, False, False)])
    def test_inputs_without_grad(self, flags):
        rng = np.random.default_rng(6)
        arrays = [rand(rng, 3, 8), rand(rng, 8), rand(rng, 8)]
        run_both(
            lambda x, g, b: F.layer_norm(x, g, b, 1e-5),
            lambda x, g, b: composed_layer_norm(x, g, b, 1e-5),
            arrays,
            requires_grad=list(flags),
        )

    def test_rejects_wrong_input_width(self):
        ln = LayerNorm(32)
        with pytest.raises(ValueError, match=r"32.*\(4, 1\)"):
            ln(Tensor(np.ones((4, 1), dtype=np.float32)))


# -- attention -------------------------------------------------------------------
class TestAttention:
    @pytest.mark.parametrize(
        "tq, tk, causal",
        [(6, 6, True), (6, 6, False), (5, 7, False)],
        ids=["causal", "no-mask", "cross"],
    )
    def test_core_matches_composed(self, tq, tk, causal):
        rng = np.random.default_rng(7)
        mask = causal_mask(tq) if causal else None
        arrays = [rand(rng, 2, tq, 8), rand(rng, 2, tk, 8), rand(rng, 2, tk, 8)]
        run_both(
            lambda q, k, v: F.attention(q, k, v, 2, mask),
            lambda q, k, v: composed_attention(q, k, v, 2, mask),
            arrays,
        )

    def test_one_tensor_as_query_key_and_value(self):
        # With a residual gradient already pending, x's sum depends on
        # the order of the q, k and v contributions.
        rng = np.random.default_rng(8)
        mask = causal_mask(5)

        def build(attn):
            def fn(x0):
                x = x0 * 1.5
                return x + attn(x, x, x, 4, mask)

            return fn

        run_both(build(F.attention), build(composed_attention), [rand(rng, 2, 5, 8)])

    @pytest.mark.parametrize(
        "flags", [(False, False, True), (True, False, False), (False, True, False)]
    )
    def test_inputs_without_grad(self, flags):
        rng = np.random.default_rng(9)
        mask = causal_mask(4)
        arrays = [rand(rng, 2, 4, 8), rand(rng, 2, 4, 8), rand(rng, 2, 4, 8)]
        run_both(
            lambda q, k, v: F.attention(q, k, v, 2, mask),
            lambda q, k, v: composed_attention(q, k, v, 2, mask),
            arrays,
            requires_grad=list(flags),
        )

    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    def test_module_matches_composed(self, monkeypatch, cross):
        # The projections of one input feed three fused nodes (self) or
        # the encoder memory feeds two (cross).
        rng = np.random.default_rng(10)
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rand(rng, 2, 5, 8), requires_grad=True)
        kv = Tensor(rand(rng, 2, 7, 8), requires_grad=True) if cross else None
        mask = None if cross else causal_mask(5)
        g = rand(rng, 2, 5, 8)

        def loss():
            return (mha(x, kv=kv, mask=mask) * Tensor(g)).sum()

        assert_model_matches(monkeypatch, mha, loss)


# -- cross-entropy ---------------------------------------------------------------
class TestCrossEntropy:
    @pytest.mark.parametrize("ignore_index", [None, 0])
    @pytest.mark.parametrize("shape", [(6, 5), (2, 4, 9)])
    def test_matches_composed(self, shape, ignore_index):
        rng = np.random.default_rng(11)
        targets = rng.integers(0, shape[-1], shape[:-1])
        run_both(
            lambda z: F.cross_entropy(z, targets, ignore_index),
            lambda z: composed_cross_entropy(z, targets, ignore_index),
            [rand(rng, *shape, scale=4.0)],
        )

    def test_all_positions_ignored(self):
        rng = np.random.default_rng(12)
        targets = np.full((2, 3), 7)
        run_both(
            lambda z: F.cross_entropy(z, targets, 7),
            lambda z: composed_cross_entropy(z, targets, 7),
            [rand(rng, 2, 3, 8)],
        )

    def test_strided_logits(self):
        # The span head slices its (b, t, 2) logits into strided views.
        rng = np.random.default_rng(13)
        targets = rng.integers(0, 6, 3)

        def build(ce):
            def fn(z):
                return ce(z[:, :, 0], targets) + ce(z[:, :, 1], targets)

            return fn

        run_both(
            build(F.cross_entropy), build(composed_cross_entropy), [rand(rng, 3, 6, 2)]
        )

    def test_rejects_mismatched_targets(self):
        with pytest.raises(ValueError, match="targets shape"):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros((2, 4), dtype=int))


# -- no_grad -----------------------------------------------------------------------
class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(COMPOSED))
    def test_forward_matches_and_records_nothing(self, name):
        rng = np.random.default_rng(14)
        cases = {
            "linear": ([rand(rng, 2, 3, 6), rand(rng, 6, 4), rand(rng, 4)], ()),
            "layer_norm": ([rand(rng, 3, 8), rand(rng, 8), rand(rng, 8)], (1e-5,)),
            "attention": (
                [rand(rng, 2, 4, 8), rand(rng, 2, 4, 8), rand(rng, 2, 4, 8)],
                (2, causal_mask(4)),
            ),
            "cross_entropy": ([rand(rng, 4, 5)], (np.array([0, 4, 2, 1]),)),
        }
        arrays, extra = cases[name]
        outs = []
        for fn in (getattr(F, name), COMPOSED[name]):
            with no_grad():
                out = fn(*leaves(arrays), *extra)
            assert not out.requires_grad and out._parents == ()
            outs.append(out.data)
        assert_same_bits(outs[0], outs[1])


# -- whole models --------------------------------------------------------------------
class TestModels:
    def _ids(self, rng, vocab, shape):
        return rng.integers(0, vocab, shape)

    @pytest.mark.parametrize("share_layers", [False, True], ids=["gpt2", "albert"])
    def test_lm(self, monkeypatch, share_layers):
        rng = np.random.default_rng(15)
        model = TinyTransformerLM(
            vocab=31, dim=16, n_heads=2, n_layers=3, max_seq=12, rng=rng,
            share_layers=share_layers,
        )
        ids = self._ids(rng, 31, (3, 9))
        assert_model_matches(monkeypatch, model, lambda: model.loss(ids))

    def test_classifier_shared_layers(self, monkeypatch):
        rng = np.random.default_rng(16)
        model = TinyTransformerClassifier(
            vocab=23, dim=16, n_heads=4, n_layers=2, max_seq=10, n_classes=3,
            rng=rng, share_layers=True,
        )
        ids = self._ids(rng, 23, (4, 8))
        labels = rng.integers(0, 3, 4)
        assert_model_matches(monkeypatch, model, lambda: model.loss(ids, labels))

    def test_seq2seq(self, monkeypatch):
        rng = np.random.default_rng(17)
        model = TinySeq2Seq(
            vocab=19, dim=16, n_heads=2, n_layers=2, max_seq=12, rng=rng
        )
        src = self._ids(rng, 19, (2, 7))
        tgt = self._ids(rng, 19, (2, 6))
        assert_model_matches(monkeypatch, model, lambda: model.loss(src, tgt))

    def test_span_extractor(self, monkeypatch):
        rng = np.random.default_rng(18)
        model = TinySpanExtractor(
            vocab=17, dim=16, n_heads=2, n_layers=2, max_seq=10, rng=rng
        )
        ids = self._ids(rng, 17, (3, 8))
        starts = rng.integers(0, 4, 3)
        ends = starts + rng.integers(0, 4, 3)
        assert_model_matches(monkeypatch, model, lambda: model.loss(ids, starts, ends))

    def test_gcnii(self, monkeypatch):
        rng = np.random.default_rng(19)
        n = 9
        adj = (rng.random((n, n)) < 0.3).astype(np.float32)
        a_hat = normalized_adjacency(np.maximum(adj, adj.T))
        model = GCNII(in_dim=5, hidden=8, out_dim=3, n_layers=3, rng=rng)
        feats = rand(rng, n, 5)
        labels = rng.integers(0, 3, n)
        assert_model_matches(
            monkeypatch, model, lambda: model.loss(feats, a_hat, labels)
        )
