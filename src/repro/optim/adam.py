"""ADAM optimizer: Tensor-level and flat-arena (ZeRO-Offload style) forms.

The CPU-side optimizer in ZeRO-Offload updates parameters with vectorized
(AVX512) instructions; TECO's simulation "transfers a cache line when
multiple parameters in the cache line are updated using a vectorized
instruction and the cache line is written back" (Section VIII-A).
:meth:`FlatAdam.step` therefore supports block-streamed execution with a
per-block callback carrying the updated index range — the attachment point
for write-back trace generation and update-protocol streaming.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["FlatAdam", "Adam"]

#: Default streaming block: 512 bits / 32 bits = 16 FP32 lanes per AVX512
#: op; practical software updates sweep larger blocks — one block per call
#: here models one buffer's worth of vectorized updates.
DEFAULT_BLOCK = 16384


class FlatAdam:
    """In-place ADAM over contiguous float32 arenas.

    Parameters
    ----------
    n_params
        Total scalar parameter count (sets state-arena sizes).
    lr, beta1, beta2, eps, weight_decay
        Standard ADAM hyper-parameters.
    """

    def __init__(
        self,
        n_params: int,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if n_params <= 0:
            raise ValueError("n_params must be positive")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.n_params = n_params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        #: First and second moment arenas (the paper's "optimizer states",
        #: resident in CPU memory under ZeRO-Offload).
        self.m = np.zeros(n_params, dtype=np.float32)
        self.v = np.zeros(n_params, dtype=np.float32)

    @property
    def state_bytes(self) -> int:
        """CPU-memory footprint of the optimizer states."""
        return self.m.nbytes + self.v.nbytes

    # -- checkpointing (repro.state protocol) ------------------------------
    def state_dict(self) -> dict:
        """Snapshot of moments, step counter and hyper-parameters."""
        return {
            "n_params": self.n_params,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self.step_count,
            "m": self.m.copy(),
            "v": self.v.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (bit-exact resume),
        hyper-parameters included."""
        if int(state["n_params"]) != self.n_params:
            raise ValueError(
                f"optimizer state is for {state['n_params']} parameters, "
                f"this optimizer has {self.n_params}"
            )
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self.step_count = int(state["step_count"])
        self.m[...] = state["m"]
        self.v[...] = state["v"]

    def step(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        block: int | None = DEFAULT_BLOCK,
        on_block: Callable[[int, int], None] | None = None,
    ) -> None:
        """One ADAM update, in place over ``params``.

        Parameters
        ----------
        params, grads
            float32 arrays of length ``n_params``; ``params`` is updated
            in place, ``grads`` is read-only.
        block
            Elements per vectorized block sweep (``None`` = single sweep).
        on_block
            Called as ``on_block(start, end)`` after each block's
            parameters are updated — in execution order, mimicking the
            cache-line write-back stream of the CPU update loop.
        """
        if params.shape != (self.n_params,) or grads.shape != (self.n_params,):
            raise ValueError(
                f"expected flat arrays of {self.n_params} elements"
            )
        if params.dtype != np.float32 or grads.dtype != np.float32:
            raise TypeError("params and grads must be float32")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        step_size = self.lr / bc1
        block = self.n_params if block is None else block
        if block <= 0:
            raise ValueError("block must be positive")
        for start in range(0, self.n_params, block):
            end = min(start + block, self.n_params)
            g = grads[start:end]
            if self.weight_decay:
                g = g + self.weight_decay * params[start:end]
            m = self.m[start:end]
            v = self.v[start:end]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            denom = np.sqrt(v / bc2) + self.eps
            params[start:end] -= (step_size * m / denom).astype(np.float32)
            if on_block is not None:
                on_block(start, end)


class Adam:
    """ADAM over a list of :class:`~repro.tensor.Tensor` parameters.

    The same update as :class:`FlatAdam`, with one moment pair per
    tensor; parameters without a gradient are skipped.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        if any(not p.requires_grad for p in self.params):
            raise ValueError("all parameters must require grad")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one ADAM update to every parameter with a gradient."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        step_size = self.lr / bc1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            denom = np.sqrt(v / bc2) + self.eps
            p.data -= (step_size * m / denom).astype(np.float32)
