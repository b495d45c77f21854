"""Stateless neural-network operations on :class:`~repro.tensor.Tensor`.

Numerically stable implementations of the activations, normalizations and
losses the Table III model families need (GELU transformers, ReLU GCNII,
cross-entropy LM / classification objectives).

``linear``, ``layer_norm``, ``attention`` and ``cross_entropy`` are fused:
each records one autograd node whose forward and backward run the float32
operations of the graph the generic ops would build, in the same order
(including the order gradient contributions to one tensor are summed), so
results and gradients are bit-identical to it.  See DESIGN.md, "Fused
autograd nodes".
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast

__all__ = [
    "relu",
    "gelu",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "softmax",
    "log_softmax",
    "linear",
    "layer_norm",
    "attention",
    "cross_entropy",
    "mse_loss",
    "dropout",
    "embedding",
    "where_mask",
]

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_COEF = np.float32(0.044715)

# Float32 bit patterns of 2**-42 and 2**42: a cube is a normal float32
# exactly when 2**-42 <= |x| < 2**42.
_CUBE_NORMAL_LO = 0x2A800000
_CUBE_NORMAL_SPAN = 0x54800000 - _CUBE_NORMAL_LO
# A float64 mantissa keeps 29 bits below float32's last place.  Low bits
# in [2**28 - 2**24, 2**28 + 2**24) put the value within 1/32 ULP of a
# float32 rounding midpoint.
_LOW29 = (1 << 29) - 1
_MIDPOINT = 1 << 28
_TIE_WINDOW = 1 << 24


def _cube(d: np.ndarray) -> np.ndarray:
    """``d ** 3`` of float32 ``d`` bit for bit, without NumPy's scalar path.

    On float32, NumPy cubes non-negative lanes in SIMD but every lane with
    the sign bit set through a per-element scalar routine (~100x slower).
    ``np.abs(d) ** 3`` reproduces the SIMD lanes.  A negative lane takes
    the float64 cube cast to float32 (correctly rounded), which equals the
    scalar routine's result except within 0.009 ULP of a rounding midpoint;
    lanes within 1/32 ULP of one, and lanes whose cube is not a normal
    float32 (including ``-0.0``, ``-inf`` and sign-bit NaNs), still take
    ``** 3``.  See DESIGN.md, "GELU and the float32 cube".
    """
    if d.ndim == 0:
        return np.asarray(d**3)
    d = np.ascontiguousarray(d)
    out = np.abs(d) ** 3
    neg = np.signbit(d)
    if not neg.any():
        return out
    # Temporaries are updated in place: each is as large as the input.
    bits = d.view(np.int32)
    c = d.astype(np.float64)
    c *= c  # exact
    c *= d  # the cube, rounded once
    near = c.view(np.int64) + (_TIE_WINDOW - _MIDPOINT)
    near &= _LOW29
    slow = near < 2 * _TIE_WINDOW
    offset = bits & 0x7FFFFFFF
    offset -= _CUBE_NORMAL_LO
    slow |= offset.view(np.uint32) >= _CUBE_NORMAL_SPAN
    slow &= neg
    # Select the float64 cube into the lanes whose sign mask is all ones.
    lanes = out.view(np.int32)
    swap = c.astype(np.float32).view(np.int32)
    swap ^= lanes
    swap &= bits >> 31
    lanes ^= swap
    idx = np.flatnonzero(slow)
    if idx.size:
        out.reshape(-1)[idx] = d.reshape(-1)[idx] ** 3
    return out


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.apply_elementwise(
        lambda d: np.maximum(d, 0.0),
        lambda d, _y: (d > 0).astype(np.float32),
    )


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.apply_elementwise(np.tanh, lambda _d, y: 1.0 - y * y)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.apply_elementwise(
        lambda d: 1.0 / (1.0 + np.exp(-d)), lambda _d, y: y * (1.0 - y)
    )


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    return x.apply_elementwise(np.exp, lambda _d, y: y)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    return x.apply_elementwise(np.log, lambda d, _y: 1.0 / d)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    return x.apply_elementwise(np.sqrt, lambda _d, y: 0.5 / y)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU (the BERT/GPT-2 activation).

    The forward ``tanh`` is kept for the backward pass, so each call
    cubes and takes ``tanh`` once.
    """
    d = x.data
    t = np.tanh(_SQRT_2_OVER_PI * (d + _GELU_COEF * _cube(d)))

    def bwd(d: np.ndarray, _y: np.ndarray) -> np.ndarray:
        dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_COEF * d**2)
        return 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * dinner

    return x.apply_elementwise(lambda d: 0.5 * d * (1.0 + t), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    e = exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    e = exp(shifted)
    return shifted - log(e.sum(axis=axis, keepdims=True))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` as one node (the ``@`` and ``+`` nodes fused)."""
    y = x.data @ weight.data
    if bias is None:
        parents = (x, weight)
    else:
        y = y + bias.data
        parents = (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            out._send(bias, _unbroadcast(grad, bias.shape))
        if x.requires_grad:
            gx = grad @ weight.data.swapaxes(-1, -2)
            out._send(x, _unbroadcast(gx, x.shape))
        if weight.requires_grad:
            gw = x.data.swapaxes(-1, -2) @ grad
            out._send(weight, _unbroadcast(gw, weight.shape))

    out = x._make(y, parents, backward)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by ``gamma`` and shift by
    ``beta``, as one node (the twelve nodes of the composed mean/variance
    graph fused)."""
    d = x.data
    inv_n = np.float32(1.0 / d.shape[-1])
    mu = d.sum(axis=-1, keepdims=True) * inv_n
    centered = d - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    var_eps = var + np.float32(eps)
    inv = var_eps**-0.5
    normed = centered * inv
    y = normed * gamma.data + beta.data

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            out._send(beta, _unbroadcast(grad, beta.shape))
        if gamma.requires_grad:
            out._send(gamma, _unbroadcast(grad * normed, gamma.shape))
        if not x.requires_grad:
            return
        g_normed = grad * gamma.data
        g_inv = _unbroadcast(g_normed * centered, inv.shape)
        g_var = g_inv * -0.5 * var_eps**-1.5
        # ``centered`` feeds ``centered * inv`` and both sides of
        # ``centered * centered``; its gradient sums them in that order.
        g_side = g_var * inv_n * centered
        g_centered = g_normed * inv + g_side + g_side
        # ``x`` gets the centered path, then the mean path: two sends,
        # as two nodes would make them.  The second always adds to the
        # first, so it may stay a broadcast view.
        out._send(x, g_centered)
        g_mean = _unbroadcast(g_centered, mu.shape) * -inv_n
        out._send(x, np.broadcast_to(g_mean, d.shape))

    out = x._make(y, (x, gamma, beta), backward)
    return out


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q``: ``(batch, q_len, dim)``; ``k``, ``v``: ``(batch, k_len, dim)``
    (the projection outputs).  Splits ``dim`` into ``n_heads`` heads,
    takes ``softmax(q k^T / sqrt(head_dim))`` with positions where the
    boolean ``mask`` (broadcast over ``(batch, heads, q_len, k_len)``) is
    False filled by -1e9, applies it to ``v`` and merges the heads back
    into ``(batch, q_len, dim)``.
    """
    b, tq, dim = q.shape
    tk = k.shape[1]
    head_dim = dim // n_heads
    scale = np.float32(1.0 / float(np.sqrt(head_dim)))
    qs = q.data.reshape(b, tq, n_heads, head_dim).swapaxes(1, 2)
    kt = k.data.reshape(b, tk, n_heads, head_dim).swapaxes(1, 2).swapaxes(-1, -2)
    vs = v.data.reshape(b, tk, n_heads, head_dim).swapaxes(1, 2)
    scores = (qs @ kt) * scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        keep = mask.astype(np.float32)
        scores = scores * keep + np.where(mask, 0.0, -1e9).astype(np.float32)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    e_sum = e.sum(axis=-1, keepdims=True)
    probs = e / e_sum
    y = (probs @ vs).swapaxes(1, 2).reshape(b, tq, dim)

    def backward(grad: np.ndarray) -> None:
        g_ctx = grad.reshape(b, tq, n_heads, head_dim).swapaxes(1, 2)
        if q.requires_grad or k.requires_grad:
            g_probs = g_ctx @ vs.swapaxes(-1, -2)
            g_sum = _unbroadcast(-g_probs * e / (e_sum * e_sum), e_sum.shape)
            # ``e`` gets the division's gradient, then the sum's.
            g_scores = (g_probs / e_sum + g_sum) * e
            if mask is not None:
                g_scores = g_scores * keep
            g_scores = g_scores * scale
            if q.requires_grad:
                g_q = g_scores @ kt.swapaxes(-1, -2)
                out._send(q, g_q.swapaxes(1, 2).reshape(q.shape))
            if k.requires_grad:
                g_kt = qs.swapaxes(-1, -2) @ g_scores
                out._send(k, g_kt.swapaxes(-1, -2).swapaxes(1, 2).reshape(k.shape))
        if v.requires_grad:
            g_v = probs.swapaxes(-1, -2) @ g_ctx
            out._send(v, g_v.swapaxes(1, 2).reshape(v.shape))

    out = q._make(y, (q, k, v), backward)
    return out


def cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: int | None = None
) -> Tensor:
    """Mean negative log likelihood over integer class targets, as one node.

    ``logits``: ``(..., n_classes)``; ``targets``: integer array matching
    the leading shape.  Positions equal to ``ignore_index`` contribute
    nothing (padding tokens).
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} != logits leading "
            f"shape {logits.shape[:-1]}"
        )
    flat = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
    else:
        keep = np.ones(flat_targets.shape, dtype=bool)
    n_keep = max(int(keep.sum()), 1)
    shifted = flat - flat.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    e_sum = e.sum(axis=-1, keepdims=True)
    logp = shifted - np.log(e_sum)
    picked = (np.arange(flat_targets.size), np.where(keep, flat_targets, 0))
    weights = keep.astype(np.float32) / np.float32(n_keep)
    weighted = logp[picked] * weights
    loss = -np.asarray(weighted.sum(), dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        g_logp = np.zeros_like(logp)
        np.add.at(g_logp, picked, -grad * weights)
        g_sum = -_unbroadcast(g_logp, e_sum.shape) * (1.0 / e_sum)
        # ``shifted`` gets the ``logp`` path, then the ``exp`` path.
        g_shifted = g_logp + g_sum * e
        out._send(logits, g_shifted.reshape(logits.shape))

    out = logits._make(loss, (logits,), backward)
    return out


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout p must be in [0, 1)")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(np.float32) / np.float32(1.0 - p)
    return x * Tensor(mask)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward (shared rows accumulate)."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise IndexError("token id out of vocabulary range")
    return table[ids]


def where_mask(x: Tensor, mask: np.ndarray, fill: float) -> Tensor:
    """Set positions where ``mask`` is False to ``fill`` (no grad there).

    Used for attention masking: masked logits get a large negative fill.
    """
    mask = np.asarray(mask, dtype=bool)
    keep = Tensor(mask.astype(np.float32))
    filler = Tensor(np.where(mask, 0.0, fill).astype(np.float32))
    return x * keep + filler
