"""Reverse-mode automatic differentiation over NumPy arrays.

Design: every :class:`Tensor` wraps a ``float32`` ndarray; operations build
a DAG of parent links and local backward closures; ``backward()`` runs a
topological sweep accumulating gradients.  Broadcasting in forward ops is
undone in backward by summing over broadcast axes (:func:`_unbroadcast`),
the standard trick that keeps every binary op shape-correct.

Gradients are plain ndarrays (not Tensors): the training loop reads/writes
them directly, exactly how the offload engines mirror PyTorch+DeepSpeed
semantics.
"""

from __future__ import annotations

import contextlib
import numbers
from collections.abc import Callable, Iterator

import numpy as np

__all__ = ["Tensor", "no_grad"]

_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction (evaluation / inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading added axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_F32 = np.dtype(np.float32)


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float32, copy=False)
    return np.asarray(value, dtype=np.float32)


class Tensor:
    """An autograd-tracked float32 array."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_pending_sink",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str = "",
    ):
        if data.__class__ is not np.ndarray or data.dtype is not _F32:
            data = _as_array(data)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------
    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        """A zero-filled tensor."""
        return cls(np.zeros(shape, dtype=np.float32), requires_grad)

    @classmethod
    def ones(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        """A one-filled tensor."""
        return cls(np.ones(shape, dtype=np.float32), requires_grad)

    # -- basic properties ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{tag})"

    def item(self) -> float:
        """The value of a scalar tensor as a float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying ndarray (shared storage)."""
        return self.data

    def detach(self) -> "Tensor":
        """A non-tracked tensor sharing this data."""
        return Tensor(self.data, requires_grad=False)

    # -- graph plumbing --------------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        live = tuple([p for p in parents if p.requires_grad]) if _grad_enabled else ()
        out = Tensor(data, requires_grad=bool(live))
        if live:
            out._parents = live
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != tensor shape {self.data.shape}"
            )
        grad = grad.astype(np.float32, copy=False)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward on a non-grad tensor")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.shape}")

        # Topological order via iterative DFS.  Tensors hash by identity,
        # so they key ``visited`` and the gradient sink directly.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        push, pop = stack.append, stack.pop
        while stack:
            node, processed = pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            push((node, True))
            for p in node._parents:
                if p not in visited:
                    push((p, False))

        grads: dict[Tensor, np.ndarray] = {self: grad}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._backward is None or not node._parents:
                node._accumulate(g)
                continue
            # Only leaves keep .grad; interior nodes route into ``grads``.
            node._pending_sink = grads
            node._backward(g)

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Used inside backward closures to route gradient to a parent."""
        sink = self._pending_sink
        prev = sink.get(parent)
        sink[parent] = grad if prev is None else prev + grad

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                out._send(a, _unbroadcast(grad, a.shape))
            if b.requires_grad:
                out._send(b, _unbroadcast(grad, b.shape))

        out = self._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, -grad)

        out = self._make(-self.data, (self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                out._send(a, _unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                out._send(b, _unbroadcast(grad * a.data, b.shape))

        out = self._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                out._send(a, _unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                out._send(
                    b,
                    _unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
                )

        out = self._make(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, numbers.Real) or isinstance(exponent, bool):
            raise TypeError("only real scalar exponents supported")
        if isinstance(exponent, np.generic):
            # A Python scalar keeps the result float32 (NumPy scalars of
            # wider types would promote it).
            exponent = exponent.item()
        out_data = self.data**exponent

        def backward(grad: np.ndarray, a=self, e=exponent) -> None:
            out._send(a, grad * e * a.data ** (e - 1))

        out = self._make(out_data, (self,), backward)
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                ga = grad @ np.swapaxes(b.data, -1, -2)
                out._send(a, _unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ grad
                out._send(b, _unbroadcast(gb, b.shape))

        out = self._make(out_data, (self, other), backward)
        return out

    # -- reductions -----------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements by default)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            out._send(a, np.broadcast_to(g, a.shape).astype(np.float32))

        out = self._make(np.asarray(out_data, dtype=np.float32), (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all elements by default)."""
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient flows to the argmax."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self) -> None:
            g = grad
            od = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                od = np.expand_dims(od, axis)
            mask = (a.data == od).astype(np.float32)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            out._send(a, mask * g)

        out = self._make(np.asarray(out_data, dtype=np.float32), (self,), backward)
        return out

    # -- shape ops ---------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape."""
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad.reshape(a.shape))

        out = self._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes: int) -> "Tensor":
        """Permute dimensions (reversed by default)."""
        axes_t = axes or tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort([ax % self.ndim for ax in axes_t]))

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad.transpose(inverse))

        out = self._make(out_data, (self,), backward)
        return out

    def swapaxes(self, a1: int, a2: int) -> "Tensor":
        """Exchange two dimensions."""
        out_data = np.swapaxes(self.data, a1, a2)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, np.swapaxes(grad, a1, a2))

        out = self._make(out_data, (self,), backward)
        return out

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray, a=self) -> None:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            out._send(a, full)

        out = self._make(out_data, (self,), backward)
        return out

    # -- elementwise nonlinearity hooks (used by functional) -------------------
    def apply_elementwise(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        dfn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        """Generic elementwise op: ``dfn(x, y)`` is dy/dx given input/output."""
        out_data = fn(self.data)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad * dfn(a.data, out_data))

        out = self._make(np.asarray(out_data, dtype=np.float32), (self,), backward)
        return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    if not tensors:
        raise ValueError("need at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(int(start), int(end))
                out._send(t, grad[tuple(idx)])

    out = tensors[0]._make(data, tuple(tensors), backward)
    return out
