"""A compact reverse-mode autograd engine over NumPy.

The reproduction needs a *real* trainable substrate — the paper's accuracy,
convergence and value-change experiments (Figures 2, 10, 13; Table V)
measure genuine optimization dynamics, which cannot be faked with timing
models.  This package provides a PyTorch-flavored API:

* :mod:`repro.tensor.tensor` — the :class:`Tensor` with broadcasting-aware
  reverse-mode autodiff;
* :mod:`repro.tensor.functional` — stateless ops (gelu, softmax, losses)
  and the fused linear / layer_norm / attention / cross_entropy nodes;
* :mod:`repro.tensor.nn` — modules (Linear, LayerNorm, Embedding, ...);
* :mod:`repro.tensor.attention` — multi-head attention;
* :mod:`repro.tensor.transformer` — encoder/decoder blocks and small LM /
  classifier models;
* :mod:`repro.tensor.gnn` — the GCNII graph convolution.
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import functional
from repro.tensor.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Sequential,
)

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Module",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "Sequential",
    "ModuleList",
]
