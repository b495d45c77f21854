"""GCNII graph convolution (Chen et al. 2020, the paper's GNN workload).

GCNII layer:

.. math::

    H^{(l+1)} = \\sigma\\Big( \\big((1-\\alpha)\\hat{A}H^{(l)} + \\alpha
    H^{(0)}\\big)\\big((1-\\beta_l)I + \\beta_l W^{(l)}\\big) \\Big)

with :math:`\\hat{A}` the symmetrically normalized adjacency (with self
loops), initial-residual weight :math:`\\alpha` and identity-map weight
:math:`\\beta_l = \\ln(\\lambda/l + 1)`.  The paper's GCNII instance has 64
layers, hidden size 1560 and trains full-graph (batch size fixed) on the
Wisconsin dataset for link prediction.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module, ModuleList
from repro.tensor.tensor import Tensor

__all__ = ["normalized_adjacency", "GCNIILayer", "GCNII"]


def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D^-1/2 (A+I) D^-1/2."""
    adj = np.asarray(adj, dtype=np.float32)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if np.any(adj < 0):
        raise ValueError("adjacency entries must be non-negative")
    a_hat = adj + np.eye(adj.shape[0], dtype=np.float32)
    deg = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    return (a_hat * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]


class GCNIILayer(Module):
    """One GCNII propagation layer."""

    def __init__(
        self,
        dim: int,
        layer_index: int,
        rng: np.random.Generator,
        alpha: float = 0.1,
        lam: float = 0.5,
    ):
        super().__init__()
        if layer_index < 1:
            raise ValueError("layer_index is 1-based")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.weight = Linear(dim, dim, rng, bias=False)
        self.alpha = alpha
        self.beta = float(np.log(lam / layer_index + 1.0))

    def forward(self, h: Tensor, h0: Tensor, a_hat: Tensor) -> Tensor:
        """One propagation step over the dense normalized adjacency."""
        mixed = (a_hat @ h) * (1.0 - self.alpha) + h0 * self.alpha
        transformed = self.weight(mixed)
        return F.relu(mixed * (1.0 - self.beta) + transformed * self.beta)


class GCNII(Module):
    """Full GCNII model: input/output projections around L layers.

    ``forward`` consumes node features and a *normalized* adjacency; use
    :func:`normalized_adjacency` to prepare it.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: int,
        out_dim: int,
        n_layers: int,
        rng: np.random.Generator,
        alpha: float = 0.1,
        lam: float = 0.5,
    ):
        super().__init__()
        if n_layers <= 0:
            raise ValueError("n_layers must be positive")
        self.proj_in = Linear(in_dim, hidden, rng)
        self.layers = ModuleList(
            [
                GCNIILayer(hidden, l + 1, rng, alpha=alpha, lam=lam)
                for l in range(n_layers)
            ]
        )
        self.proj_out = Linear(hidden, out_dim, rng)

    def forward(self, features: np.ndarray, a_hat: np.ndarray) -> Tensor:
        """Node logits from features and normalized adjacency."""
        a = Tensor(np.asarray(a_hat, dtype=np.float32))
        h0 = F.relu(self.proj_in(Tensor(np.asarray(features, dtype=np.float32))))
        h = h0
        for layer in self.layers:
            h = layer(h, h0, a)
        return self.proj_out(h)

    def loss(
        self, features: np.ndarray, a_hat: np.ndarray, labels: np.ndarray
    ) -> Tensor:
        """Cross-entropy over node labels."""
        return F.cross_entropy(self(features, a_hat), labels)

    def accuracy(
        self, features: np.ndarray, a_hat: np.ndarray, labels: np.ndarray
    ) -> float:
        """Fraction of nodes classified correctly."""
        from repro.tensor.tensor import no_grad

        with no_grad():
            pred = np.argmax(self(features, a_hat).data, axis=-1)
        return float(np.mean(pred == np.asarray(labels)))
