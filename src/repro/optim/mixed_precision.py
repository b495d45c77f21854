"""Mixed-precision training support (Section V, "About mixed-precision").

In mixed-precision ZeRO-Offload the FP32 master parameters are updated on
CPU and converted to FP16 *on the GPU* for forward/backward — so the
CPU-to-GPU transfer stays FP32 and DBA applies unchanged.  This module
provides the conversion helpers plus a dynamic loss scaler of the standard
DeepSpeed shape (scale up after a streak of finite steps, halve on
overflow).
"""

from __future__ import annotations

import numpy as np

__all__ = ["to_fp16", "fp16_round_trip", "LossScaler"]


def to_fp16(x: np.ndarray) -> np.ndarray:
    """FP32 -> FP16 cast (the GPU-side conversion before compute).

    Values beyond the FP16 range become inf — that is the overflow signal
    the loss scaler watches for, so the cast warning is suppressed.
    """
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float32).astype(np.float16)


def fp16_round_trip(x: np.ndarray) -> np.ndarray:
    """FP32 -> FP16 -> FP32, the precision actually seen by GPU compute."""
    return to_fp16(x).astype(np.float32)


class LossScaler:
    """Dynamic loss scaling for FP16 gradients.

    Parameters
    ----------
    init_scale
        Starting scale factor.
    growth_interval
        Consecutive finite steps before the scale doubles.
    backoff
        Multiplier applied on overflow (default halves).
    """

    def __init__(
        self,
        init_scale: float = 2.0**16,
        growth_interval: int = 1000,
        backoff: float = 0.5,
        max_scale: float = 2.0**24,
    ):
        if init_scale <= 0 or max_scale <= 0:
            raise ValueError("scales must be positive")
        if growth_interval <= 0:
            raise ValueError("growth_interval must be positive")
        if not 0 < backoff < 1:
            raise ValueError("backoff must be in (0, 1)")
        self.scale = float(init_scale)
        self.growth_interval = growth_interval
        self.backoff = backoff
        self.max_scale = float(max_scale)
        self._good_steps = 0
        self.overflows = 0

    # -- checkpointing (repro.state protocol) ------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the dynamic scale and its growth bookkeeping."""
        return {
            "scale": self.scale,
            "growth_interval": self.growth_interval,
            "backoff": self.backoff,
            "max_scale": self.max_scale,
            "good_steps": self._good_steps,
            "overflows": self.overflows,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Without this, a resumed mixed-precision run restarts from
        ``init_scale`` with a reset growth streak and diverges from the
        uninterrupted run at the first growth/overflow event.
        """
        self.scale = float(state["scale"])
        self.growth_interval = int(state["growth_interval"])
        self.backoff = float(state["backoff"])
        self.max_scale = float(state["max_scale"])
        self._good_steps = int(state["good_steps"])
        self.overflows = int(state["overflows"])

    def unscale(self, grads: np.ndarray) -> np.ndarray:
        """Divide gradients by the current scale (in place)."""
        grads /= np.float32(self.scale)
        return grads

    def check_overflow(self, grads: np.ndarray) -> bool:
        """True if the (scaled) gradients contain inf/nan."""
        return not bool(np.all(np.isfinite(grads)))

    def update(self, found_overflow: bool) -> bool:
        """Advance scaler state; returns whether the step should be applied
        (False = skip the optimizer step, as DeepSpeed does on overflow)."""
        if found_overflow:
            self.overflows += 1
            self.scale = max(1.0, self.scale * self.backoff)
            self._good_steps = 0
            return False
        self._good_steps += 1
        if self._good_steps >= self.growth_interval:
            self.scale = min(self.max_scale, self.scale * 2.0)
            self._good_steps = 0
        return True
