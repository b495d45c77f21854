"""Optimizers and gradient clipping.

ZeRO-Offload runs the ADAM optimizer *on the CPU* over flat FP32 arenas of
parameters, gradients and optimizer states, using AVX512-vectorized block
updates (Section VIII-A).  :class:`FlatAdam` reproduces that shape — an
in-place update over contiguous arrays, optionally streamed block-by-block
with a callback at every block boundary, which is the hook both the
write-back trace generator and the TECO update-protocol stream attach to.

:class:`Adam` adapts the same math to a list of
:class:`~repro.tensor.Tensor` parameters for ordinary model training.
"""

from repro.optim.adam import Adam, FlatAdam
from repro.optim.clip import clip_grad_norm, clip_flat_gradients

__all__ = [
    "Adam",
    "FlatAdam",
    "clip_grad_norm",
    "clip_flat_gradients",
]
