"""Autograd correctness: analytic gradients vs central finite differences."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.tensor import concat


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar fn wrt x (float64 interior)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fn(x)
        flat[i] = old - eps
        lo = fn(x)
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_gradient(build_loss, shape, seed=0, rtol=2e-2, atol=2e-3):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(shape).astype(np.float32)

    t = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    analytic = t.grad

    def f(arr):
        with no_grad():
            return build_loss(Tensor(arr.astype(np.float32))).item()

    numeric = numerical_grad(f, x0.copy().astype(np.float64))
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


class TestBasicOps:
    def test_add_mul_chain(self):
        check_gradient(lambda t: ((t * 3.0 + 1.0) * t).sum(), (4, 3))

    def test_sub_div(self):
        check_gradient(lambda t: ((t - 0.5) / (t * t + 2.0)).sum(), (5,))

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), (6,))

    def test_matmul(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
        check_gradient(lambda t: (t @ w).sum(), (4, 3))

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(2)
        a0 = rng.standard_normal((2, 3)).astype(np.float32)
        b0 = rng.standard_normal((3, 2)).astype(np.float32)
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b0.T, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a0.T @ np.ones((2, 2)), rtol=1e-5)

    def test_batched_matmul(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((2, 4, 3)).astype(np.float32))
        check_gradient(lambda t: (t @ w).sum(), (2, 3, 4))

    def test_broadcast_add(self):
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_broadcast_mul_gradient(self):
        check_gradient(
            lambda t: (t * Tensor(np.arange(3, dtype=np.float32))).sum(),
            (2, 3),
        )

    def test_reuse_accumulates(self):
        t = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (t * t + t).sum().backward()  # d/dt (t^2 + t) = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])

    def test_mean_and_sum_axis(self):
        check_gradient(lambda t: t.mean(axis=0).sum(), (3, 4))
        check_gradient(lambda t: t.sum(axis=1, keepdims=True).sum(), (3, 4))

    def test_max_gradient_routes_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_transpose(self):
        check_gradient(lambda t: (t.reshape(6) * 2.0).sum(), (2, 3))
        check_gradient(lambda t: t.transpose(1, 0).sum(), (2, 3))
        check_gradient(lambda t: t.swapaxes(0, 1).sum(), (2, 3))

    def test_transpose_negative_axes_gradient_shape(self):
        t = Tensor(np.zeros((2, 3, 4), dtype=np.float32), requires_grad=True)
        t.transpose(0, -1, 1).sum().backward()
        assert t.grad.shape == (2, 3, 4)
        check_gradient(lambda t: (t.transpose(-1, 0, -2) * 2.0).sum(), (2, 3, 4))

    def test_transpose_negative_axes_routes_values(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((2, 3, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3)).astype(np.float32)
        t = Tensor(x0, requires_grad=True)
        (t.transpose(0, -1, 1) * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(t.grad, w.transpose(0, 2, 1))

    def test_leaf_rejects_misshapen_gradient(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="gradient shape"):
            t._accumulate(np.ones((3, 2), dtype=np.float32))
        assert t.grad is None

    def test_pow_numpy_scalar_exponents(self):
        x0 = np.array([1.5, -2.0, 0.5], dtype=np.float32)
        for e in (np.float32(2), np.int64(2), np.float64(2.0)):
            t = Tensor(x0, requires_grad=True)
            out = t**e
            assert out.data.dtype == np.float32
            np.testing.assert_array_equal(out.data, x0**2)
            out.sum().backward()
            np.testing.assert_array_equal(t.grad, 2 * x0)

    def test_pow_rejects_bool_and_non_scalars(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        for bad in (True, np.bool_(False), "2", np.array([2.0]), 1j):
            with pytest.raises(TypeError):
                t**bad

    def test_getitem_scatter(self):
        t = Tensor(np.arange(5, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 3])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0, 0, 1.0, 0])

    def test_concat(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        c = concat([a, b], axis=0)
        (c * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_no_grad_builds_no_graph(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_backward_requires_scalar_or_grad(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_on_nongrad_rejected(self):
        t = Tensor(np.ones(1, dtype=np.float32))
        with pytest.raises(RuntimeError):
            t.backward()


class TestActivations:
    def test_relu(self):
        check_gradient(lambda t: F.relu(t).sum(), (10,), seed=4)

    def test_gelu(self):
        check_gradient(lambda t: F.gelu(t).sum(), (10,), seed=5)

    def test_tanh_sigmoid(self):
        check_gradient(lambda t: F.tanh(t).sum(), (8,), seed=6)
        check_gradient(lambda t: F.sigmoid(t).sum(), (8,), seed=7)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        s = F.softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_softmax_gradient(self):
        w = np.arange(5, dtype=np.float32)
        check_gradient(
            lambda t: (F.softmax(t) * Tensor(w)).sum(), (3, 5), seed=9
        )

    def test_log_softmax_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 0.0]], dtype=np.float32))
        out = F.log_softmax(x)
        assert np.all(np.isfinite(out.data))


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(
            np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=np.float32),
            requires_grad=True,
        )
        targets = np.array([0, 2])
        loss = F.cross_entropy(logits, targets)
        probs = np.exp(logits.data) / np.exp(logits.data).sum(-1, keepdims=True)
        expected = -np.log(probs[[0, 1], targets]).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-5, abs=0)

    def test_cross_entropy_gradient(self):
        targets = np.array([1, 0, 2])
        check_gradient(
            lambda t: F.cross_entropy(t, targets), (3, 4), seed=10
        )

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(
            np.zeros((2, 3), dtype=np.float32), requires_grad=True
        )
        loss = F.cross_entropy(logits, np.array([1, -1]), ignore_index=-1)
        # only first row counts; uniform logits -> loss = log(3)
        assert loss.item() == pytest.approx(np.log(3.0), rel=1e-5, abs=0)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.cross_entropy(
                Tensor(np.zeros((2, 3), dtype=np.float32)), np.zeros((3,), int)
            )

    def test_mse(self):
        target = np.zeros((4,), dtype=np.float32)
        check_gradient(lambda t: F.mse_loss(t, target), (4,), seed=11)


class TestDropoutAndMask:
    def test_dropout_eval_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10), dtype=np.float32))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_invalid_p(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(2)), 1.0, rng, True)

    def test_where_mask(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        mask = np.array([[True, False], [True, True]])
        out = F.where_mask(x, mask, -1e9)
        assert out.data[0, 1] == -1e9
        out.sum().backward()
        np.testing.assert_allclose(x.grad, mask.astype(np.float32))

    def test_embedding_bounds(self):
        table = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(IndexError):
            F.embedding(table, np.array([4]))
