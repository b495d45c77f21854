"""Tests for ADAM (both forms) and gradient clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import Adam, FlatAdam, clip_flat_gradients, clip_grad_norm
from repro.tensor import Tensor


def reference_adam(params, grads, m, v, t, lr, b1, b2, eps):
    """Straightforward textbook ADAM for cross-checking."""
    m = b1 * m + (1 - b1) * grads
    v = b2 * v + (1 - b2) * grads**2
    mh = m / (1 - b1**t)
    vh = v / (1 - b2**t)
    return params - lr * mh / (np.sqrt(vh) + eps), m, v


class TestFlatAdam:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        n = 1000
        params = rng.standard_normal(n).astype(np.float32)
        ref_p = params.copy().astype(np.float64)
        m = np.zeros(n)
        v = np.zeros(n)
        opt = FlatAdam(n, lr=1e-2)
        for t in range(1, 4):
            grads = rng.standard_normal(n).astype(np.float32)
            opt.step(params, grads)
            ref_p, m, v = reference_adam(
                ref_p, grads.astype(np.float64), m, v, t, 1e-2, 0.9, 0.999, 1e-8
            )
        np.testing.assert_allclose(params, ref_p, rtol=1e-4, atol=1e-5)

    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(1)
        n = 517  # deliberately not a block multiple
        grads = rng.standard_normal(n).astype(np.float32)
        p1 = rng.standard_normal(n).astype(np.float32)
        p2 = p1.copy()
        o1, o2 = FlatAdam(n), FlatAdam(n)
        o1.step(p1, grads, block=None)
        o2.step(p2, grads, block=64)
        np.testing.assert_array_equal(p1, p2)

    def test_block_callback_covers_range_in_order(self):
        n = 100
        opt = FlatAdam(n)
        seen = []
        opt.step(
            np.zeros(n, dtype=np.float32),
            np.ones(n, dtype=np.float32),
            block=32,
            on_block=lambda s, e: seen.append((s, e)),
        )
        assert seen == [(0, 32), (32, 64), (64, 96), (96, 100)]

    def test_minimizes_quadratic(self):
        n = 10
        target = np.linspace(-1, 1, n).astype(np.float32)
        params = np.zeros(n, dtype=np.float32)
        opt = FlatAdam(n, lr=0.05)
        for _ in range(300):
            grads = 2 * (params - target)
            opt.step(params, grads.astype(np.float32))
        np.testing.assert_allclose(params, target, atol=0.02)

    def test_weight_decay_shrinks(self):
        n = 4
        params = np.ones(n, dtype=np.float32) * 10
        opt = FlatAdam(n, lr=0.1, weight_decay=0.1)
        for _ in range(50):
            opt.step(params, np.zeros(n, dtype=np.float32))
        assert np.all(np.abs(params) < 10)

    def test_state_bytes(self):
        opt = FlatAdam(1000)
        assert opt.state_bytes == 2 * 1000 * 4

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FlatAdam(0)
        with pytest.raises(ValueError):
            FlatAdam(10, lr=0)
        with pytest.raises(ValueError):
            FlatAdam(10, beta1=1.0)
        opt = FlatAdam(10)
        with pytest.raises(ValueError):
            opt.step(np.zeros(5, np.float32), np.zeros(5, np.float32))
        with pytest.raises(TypeError):
            opt.step(np.zeros(10), np.zeros(10))

    @given(st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_any_block_size_equivalent(self, n, block):
        rng = np.random.default_rng(n)
        grads = rng.standard_normal(n).astype(np.float32)
        p1 = rng.standard_normal(n).astype(np.float32)
        p2 = p1.copy()
        FlatAdam(n).step(p1, grads, block=None)
        FlatAdam(n).step(p2, grads, block=block)
        np.testing.assert_array_equal(p1, p2)


class TestTensorAdam:
    def test_matches_flat_adam(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(64).astype(np.float32)
        grad = rng.standard_normal(64).astype(np.float32)

        t = Tensor(data.copy(), requires_grad=True)
        t.grad = grad.copy()
        Adam([t], lr=1e-2).step()

        flat = data.copy()
        FlatAdam(64, lr=1e-2).step(flat, grad)
        np.testing.assert_allclose(t.data, flat, rtol=1e-6)

    def test_skips_params_without_grad(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = Adam([t])
        opt.step()  # no grad: unchanged
        np.testing.assert_array_equal(t.data, np.ones(3))

    def test_flat_list_still_works(self):
        t = Tensor(np.ones(3, np.float32), requires_grad=True)
        t.grad = np.ones(3, np.float32)
        Adam([t], lr=0.1).step()
        assert t.data[0] < 1.0

    def test_rejects_empty_or_nongrad(self):
        with pytest.raises(ValueError):
            Adam([])
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(2))])


class TestClipping:
    def test_flat_clip_to_norm(self):
        g = np.full(4, 3.0, dtype=np.float32)  # norm 6
        pre = clip_flat_gradients(g, 1.0)
        assert pre == pytest.approx(6.0)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_under_norm(self):
        g = np.full(4, 0.1, dtype=np.float32)
        before = g.copy()
        clip_flat_gradients(g, 10.0)
        np.testing.assert_array_equal(g, before)

    def test_tensor_clip_global(self):
        a = Tensor(np.zeros(4, np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        a.grad = np.full(4, 3.0, dtype=np.float32)
        b.grad = np.full(4, 4.0, dtype=np.float32)
        total = clip_grad_norm([a, b], 1.0)
        assert total == pytest.approx(10.0)
        combined = np.sqrt(
            np.sum(a.grad.astype(np.float64) ** 2)
            + np.sum(b.grad.astype(np.float64) ** 2)
        )
        assert combined == pytest.approx(1.0, rel=1e-5)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_flat_gradients(np.ones(2, np.float32), 0.0)

