"""Flat parameter/gradient arenas (the ZeRO-Offload memory layout).

ZeRO-Offload keeps CPU-side master parameters, gradients and optimizer
states in flat contiguous buffers so the CPU ADAM can sweep them with
vectorized instructions.  :class:`FlatArena` reproduces that layout over a
:class:`~repro.tensor.nn.Module`: every parameter maps to a slice of one
float32 array, in deterministic registration order, which also defines the
cache-line addressing used by the giant-cache mapping and the write-back
trace generator.
"""

from __future__ import annotations

import numpy as np

from repro.interconnect.packets import CACHE_LINE_BYTES
from repro.tensor.nn import Module

__all__ = ["FlatArena"]

WORDS_PER_LINE = CACHE_LINE_BYTES // 4


class FlatArena:
    """Contiguous float32 storage for a module's parameters and gradients.

    Attributes
    ----------
    params
        The flat CPU master-parameter array (ADAM updates this in place).
    grads
        The flat gradient arena (filled from the model each step).
    slices
        ``name -> slice`` mapping into the flat arrays.
    """

    def __init__(self, module: Module):
        named = list(module.parameters())
        if not named:
            raise ValueError("module has no parameters")
        self.module = module
        # The module tree is fixed once built; walk it here, not per step.
        self._named = named
        self.slices: dict[str, slice] = {}
        offset = 0
        for name, p in named:
            self.slices[name] = slice(offset, offset + p.size)
            offset += p.size
        self.n_params = offset
        self.params = np.empty(offset, dtype=np.float32)
        self.grads = np.zeros(offset, dtype=np.float32)
        self.pull_params()

    # -- parameter mirroring --------------------------------------------------
    def pull_params(self) -> None:
        """Copy model parameter values into the flat arena (CPU side)."""
        self.params[...] = self.model_params()

    def model_params(self) -> np.ndarray:
        """A flat copy of the values the model tensors hold now (the copy
        last pushed, which need not equal :attr:`params`)."""
        out = np.empty(self.n_params, dtype=np.float32)
        for name, p in self._named:
            out[self.slices[name]] = p.data.reshape(-1)
        return out

    def push_params(self, source: np.ndarray | None = None) -> None:
        """Scatter a flat parameter array back into the model tensors.

        ``source`` defaults to :attr:`params`; passing a different array
        supports pushing a DBA-merged device copy instead of the master.
        """
        src = self.params if source is None else source
        if src.shape != (self.n_params,):
            raise ValueError(f"expected ({self.n_params},), got {src.shape}")
        for name, p in self._named:
            p.data[...] = src[self.slices[name]].reshape(p.shape)

    def collect_grads(self) -> None:
        """Gather model gradients into the flat gradient arena.

        Parameters without gradients contribute zeros (matching the
        all-reduce semantics of a parameter unused in the step).
        """
        for name, p in self._named:
            sl = self.slices[name]
            if p.grad is None:
                self.grads[sl] = 0.0
            else:
                self.grads[sl] = p.grad.reshape(-1)

    def zero_grad(self) -> None:
        """Clear every model parameter's gradient (``Module.zero_grad``
        without walking the module tree)."""
        for _, p in self._named:
            p.grad = None

    def view(self, name: str) -> np.ndarray:
        """Flat view of one named parameter inside the arena."""
        return self.params[self.slices[name]]

    # -- addressing -------------------------------------------------------
    @property
    def param_bytes(self) -> int:
        """Size of the flat parameter arena in bytes."""
        return self.n_params * 4

    @property
    def n_lines(self) -> int:
        """Cache lines spanned by the parameter arena (padded)."""
        return -(-self.param_bytes // CACHE_LINE_BYTES)

    def line_index_of(self, flat_index: int) -> int:
        """Cache-line index holding a given flat parameter index."""
        if not 0 <= flat_index < self.n_params:
            raise IndexError(f"flat index {flat_index} out of range")
        return flat_index // WORDS_PER_LINE

    def lines_for_range(self, start: int, end: int) -> range:
        """Line indices touched by updating ``params[start:end]``."""
        if not 0 <= start <= end <= self.n_params:
            raise IndexError(f"bad range [{start}, {end})")
        if start == end:
            return range(0)
        return range(start // WORDS_PER_LINE, (end - 1) // WORDS_PER_LINE + 1)

    def snapshot(self) -> np.ndarray:
        """A copy of the current master parameters."""
        return self.params.copy()
