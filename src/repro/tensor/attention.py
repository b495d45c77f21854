"""Multi-head attention (self- and cross-) for the transformer models."""

from __future__ import annotations

import numpy as np

from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module
from repro.tensor.tensor import Tensor

__all__ = ["MultiHeadAttention", "causal_mask"]


def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular boolean mask for decoder self-attention."""
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    return np.tril(np.ones((seq_len, seq_len), dtype=bool))


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention.

    Supports self-attention (``kv = None``) and cross-attention (encoder
    memory passed as ``kv``), with an optional boolean mask broadcast over
    ``(batch, heads, q_len, k_len)``.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % n_heads:
            raise ValueError(f"dim {dim} not divisible by {n_heads} heads")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def forward(
        self,
        x: Tensor,
        kv: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend ``x`` to itself (or to ``kv`` for cross-attention)."""
        source = kv if kv is not None else x
        ctx = F.attention(
            self.q_proj(x),
            self.k_proj(source),
            self.v_proj(source),
            self.n_heads,
            mask,
        )
        return self.out_proj(ctx)
