"""Neural-network modules (the PyTorch-shaped layer library).

A :class:`Module` owns named parameters and submodules; ``parameters()``
yields ``(qualified_name, Tensor)`` pairs in a deterministic order, which
the offload engines rely on to lay tensors out contiguously in the CPU
address space (the giant-cache mapping is by allocation order).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "Sequential",
    "ModuleList",
]


class Module:
    """Base class: parameter/submodule registration by attribute assignment."""

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------------
    def parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(name, parameter)`` in deterministic registration order."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.parameters(prefix=f"{prefix}{name}.")

    def parameter_list(self) -> list[Tensor]:
        """Parameters only, without names."""
        return [p for _, p in self.parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for _, p in self.parameters())

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for _, p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively; returns self."""
        object.__setattr__(self, "training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively; returns self."""
        return self.train(False)

    # -- state I/O --------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter, keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values; names and shapes must match."""
        params = dict(self.parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in params.items():
            if state[name].shape != p.shape:
                raise ValueError(
                    f"{name}: shape {state[name].shape} != {p.shape}"
                )
            p.data[...] = state[name]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        """Compute the module's output (subclasses implement)."""
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature sizes must be positive")
        bound = float(np.sqrt(6.0 / (in_features + out_features)))
        self.weight = Tensor(
            rng.uniform(-bound, bound, (in_features, out_features)).astype(
                np.float32
            ),
            requires_grad=True,
            name="weight",
        )
        self.bias = (
            Tensor(np.zeros(out_features, dtype=np.float32), requires_grad=True)
            if bias
            else None
        )
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map (one fused autograd node)."""
        if x.shape[-1:] != (self.in_features,):
            raise ValueError(
                f"Linear expects last dimension {self.in_features}, "
                f"got input of shape {x.shape}"
            )
        return F.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        """Normalize over the last dimension, then scale/shift (one fused
        autograd node)."""
        if x.shape[-1:] != (self.dim,):
            raise ValueError(
                f"LayerNorm expects last dimension {self.dim}, "
                f"got input of shape {x.shape}"
            )
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Token-id to dense-vector lookup table."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator):
        super().__init__()
        if vocab <= 0 or dim <= 0:
            raise ValueError("vocab and dim must be positive")
        self.weight = Tensor(
            (rng.standard_normal((vocab, dim)) * 0.02).astype(np.float32),
            requires_grad=True,
        )
        self.vocab = vocab
        self.dim = dim

    def forward(self, ids: np.ndarray) -> Tensor:
        """Look up rows for integer token ids."""
        return F.embedding(self.weight, ids)


class Dropout(Module):
    """Inverted dropout with an explicit generator for determinism."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("p must be in [0, 1)")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        """Apply inverted dropout (identity in eval mode)."""
        return F.dropout(x, self.p, self.rng, self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = ModuleList(list(layers))

    def forward(self, x):
        """Apply the layers in order."""
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """An indexable container whose children register as submodules."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> None:
        """Add a module, registering it as a child."""
        idx = len(self._items)
        self._items.append(module)
        self._modules[str(idx)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]
