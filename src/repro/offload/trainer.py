"""Functional ZeRO-Offload/TECO training loop (bit-exact DBA effects).

Runs real training steps of a NumPy autograd model through the exact
offload dataflow:

1. the "GPU" computes forward/backward against its *device copy* of the
   parameters;
2. gradients move to the CPU flat arena (Phase 3);
3. CPU clips gradients and runs :class:`~repro.optim.FlatAdam` over the
   master parameters (Phases 4-5);
4. updated parameters move back to the device copy — fully for the
   baseline and TECO-CXL (numerically identical paths), or through the
   Aggregator -> CXL -> Disaggregator byte-merge when TECO-Reduction's DBA
   is active, so the device copy keeps *stale high-order bytes*.

This makes the accuracy/convergence impact of DBA a measured property of
the training run, not an injected approximation — the basis of Figures 10
and 13 and Table V.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from repro.dba import ActivationPolicy, Aggregator, DBARegister, Disaggregator
from repro.obs.profile import active_profile
from repro.offload.arena import FlatArena
from repro.optim import FlatAdam, clip_flat_gradients
from repro.state.checkpoint import (
    StateMismatchError,
    is_legacy_checkpoint,
    load_state,
    save_state,
)
from repro.tensor.nn import Module

__all__ = ["TrainerMode", "StepResult", "CommVolume", "OffloadTrainer"]

#: State keys of the training-recipe features the trainer dropped, each
#: with the value a run that never used the feature wrote and the
#: feature's name.  A checkpoint from before the removal loads when
#: every key holds its default and is refused otherwise.
_REMOVED_FEATURES = {
    "mixed_precision": (False, "mixed-precision training"),
    "loss_scaler": (None, "mixed-precision training"),
    "accumulation_steps": (1, "gradient accumulation"),
    "micro_step": (0, "gradient accumulation"),
    "accum": (None, "gradient accumulation"),
    "lr_schedule": (None, "a learning-rate schedule"),
}


class TrainerMode(enum.Enum):
    """Which system's dataflow the trainer follows."""

    ZERO_OFFLOAD = "zero-offload"
    TECO_CXL = "teco-cxl"  # update coherence only: numerically exact
    TECO_REDUCTION = "teco-reduction"  # + DBA byte truncation


@dataclass(frozen=True)
class StepResult:
    """Outcome of one training step."""

    step: int
    loss: float
    grad_norm: float
    dba_active: bool
    #: Parameter payload bytes shipped CPU->GPU this step.
    param_payload_bytes: int
    #: Gradient payload bytes shipped GPU->CPU this step.
    grad_payload_bytes: int


@dataclass
class CommVolume:
    """Cumulative communication-volume accounting."""

    param_bytes: int = 0
    grad_bytes: int = 0
    param_bytes_full_equivalent: int = 0

    @property
    def total(self) -> int:
        """Total bytes shipped in both directions."""
        return self.param_bytes + self.grad_bytes

    @property
    def param_reduction(self) -> float:
        """Fractional parameter-volume saving vs full transfers."""
        if self.param_bytes_full_equivalent == 0:
            return 0.0
        return 1.0 - self.param_bytes / self.param_bytes_full_equivalent

    # -- checkpointing (repro.state protocol) ------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the cumulative byte counters."""
        return {
            "param_bytes": self.param_bytes,
            "grad_bytes": self.grad_bytes,
            "param_bytes_full_equivalent": self.param_bytes_full_equivalent,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, so a resumed run's
        communication accounting continues from the interruption point."""
        self.param_bytes = int(state["param_bytes"])
        self.grad_bytes = int(state["grad_bytes"])
        self.param_bytes_full_equivalent = int(
            state["param_bytes_full_equivalent"]
        )


class OffloadTrainer:
    """Trains a module with the offload dataflow of the selected system.

    Parameters
    ----------
    model
        Any module exposing ``loss(*batch) -> Tensor``.
    mode
        System dataflow to follow.
    lr, max_grad_norm
        Optimizer settings (CPU-side ADAM + Phase-4 clipping).
    policy
        DBA activation policy (TECO-Reduction only; defaults to the paper's
        ``act_aft_steps=500, dirty_bytes=2``).
    grad_transform
        Optional callable applied to the flat gradient after it reaches
        the CPU, before clipping: ``(np.ndarray) ->
        np.ndarray`` of the same shape.  The in-fabric aggregation
        proxies inject their wire-format round-trip here
        (:func:`repro.interconnect.aggregation.wire_roundtrip`), so
        finetune accuracy sees the real encode/decode rounding error.
        ``None`` (default) leaves the step bit-identical.
    """

    def __init__(
        self,
        model: Module,
        mode: TrainerMode = TrainerMode.ZERO_OFFLOAD,
        lr: float = 1e-3,
        max_grad_norm: float = 1.0,
        policy: ActivationPolicy | None = None,
        grad_transform=None,
    ):
        self.model = model
        self.mode = mode
        self.arena = FlatArena(model)
        self.optimizer = FlatAdam(self.arena.n_params, lr=lr)
        self.max_grad_norm = max_grad_norm
        self.policy = policy or ActivationPolicy()
        #: The accelerator's resident parameter copy (the giant cache).
        self.gpu_params = self.arena.snapshot()
        self.volume = CommVolume()
        self.step_count = 0
        self.history: list[StepResult] = []
        #: Optional gradient wire-format hook (see class docstring).
        self.grad_transform = grad_transform
        #: Observability hooks: the repro.obs profile active at build
        #: time (null objects outside one), so the un-profiled step pays
        #: one ``enabled`` test per phase.  Trainer phases are wall-clock
        #: spans under the ``host`` pid (this is a functional NumPy loop,
        #: not a timing simulation).
        profile = active_profile()
        self.tracer = profile.tracer
        self.metrics = profile.metrics

    # -- the five phases -----------------------------------------------------
    def step(self, *batch) -> StepResult:
        """Run one full training step on ``batch``."""
        wall = self.tracer.wall_ts if self.tracer.enabled else None
        marks = [wall()] if wall else []
        # Phase 1-2: GPU computes against its device copy.
        self.arena.push_params(self.gpu_params)
        self.arena.zero_grad()
        loss = self.model.loss(*batch)
        if wall:
            marks.append(wall())
        loss.backward()
        if wall:
            marks.append(wall())

        # Phase 3: gradients to CPU (always full precision — Section V:
        # "gradients ... cannot apply DBA").
        self.arena.collect_grads()
        grad_payload = self.arena.grads.nbytes
        if wall:
            marks.append(wall())

        # Model the wire format the gradient crossed the fabric in, so
        # the CPU phases consume the decoded values.
        if self.grad_transform is not None:
            transformed = np.asarray(
                self.grad_transform(self.arena.grads), dtype=np.float32
            )
            if transformed.shape != self.arena.grads.shape:
                raise ValueError(
                    "grad_transform must preserve the flat gradient shape"
                )
            self.arena.grads[...] = transformed

        # Phase 4: clip on CPU.
        grad_norm = clip_flat_gradients(self.arena.grads, self.max_grad_norm)
        if wall:
            marks.append(wall())

        # Phase 5: ADAM over the CPU master copy.
        self.optimizer.step(self.arena.params, self.arena.grads)
        if wall:
            marks.append(wall())

        # Listing 1: check_activation(i) after backward, before transfer.
        dba_active = (
            self.mode is TrainerMode.TECO_REDUCTION
            and self.policy.check_activation(self.step_count)
        )

        # Parameter transfer back to the device copy.
        if dba_active:
            register = DBARegister(
                enabled=True, dirty_bytes=self.policy.dirty_bytes
            )
            aggregator = Aggregator(register)
            payload = aggregator.pack_tensor(self.arena.params)
            self.gpu_params = Disaggregator(register).unpack(
                self.gpu_params, payload
            )
            # True wire bytes: the zero-padding of a partial final cache
            # line is never transmitted, so it is excluded here.
            param_payload = aggregator.payload_bytes_produced
        else:
            self.gpu_params = self.arena.snapshot()
            param_payload = self.arena.params.nbytes

        self.volume.param_bytes += param_payload
        self.volume.grad_bytes += grad_payload
        self.volume.param_bytes_full_equivalent += self.arena.params.nbytes

        result = StepResult(
            step=self.step_count,
            loss=float(loss.item()),
            grad_norm=grad_norm,
            dba_active=dba_active,
            param_payload_bytes=param_payload,
            grad_payload_bytes=grad_payload,
        )
        self.history.append(result)
        self.step_count += 1
        if wall:
            marks.append(wall())
        self._observe_step(marks, result)
        return result

    #: Trainer phase spans, one per pair of consecutive step marks.
    _PHASES = (
        "forward", "backward", "grad-transfer", "clip", "adam",
        "param-transfer",
    )

    def _observe_step(self, marks: list, result: StepResult) -> None:
        """Feed one step into the observability hooks (if any).

        Wall-clock phase spans land under the ``host`` pid with category
        ``trainer``; metrics record per-step payload/loss series and the
        cumulative DBA savings counter.
        """
        tracer = self.tracer
        if tracer.enabled and marks:
            for name, a, b in zip(self._PHASES, marks, marks[1:]):
                tracer.add_span(
                    a, b, name, "trainer", track="trainer", pid="host"
                )
            tracer.add_span(
                marks[0], marks[-1], "step", "trainer",
                track="step", pid="host",
                step=result.step, loss=result.loss, mode=self.mode.value,
                dba_active=result.dba_active,
            )
        metrics = self.metrics
        if metrics.enabled:
            ts = marks[0] if marks else float(result.step)
            metrics.counter("trainer.steps").inc()
            metrics.sample("trainer.loss", ts, result.loss)
            metrics.sample(
                "trainer.param_payload_bytes", ts, result.param_payload_bytes
            )
            metrics.sample(
                "trainer.grad_payload_bytes", ts, result.grad_payload_bytes
            )
            if result.dba_active and result.param_payload_bytes:
                saved = self.arena.params.nbytes - result.param_payload_bytes
                if saved > 0:
                    metrics.counter("dba.bytes_saved").inc(saved)

    def train(self, batches) -> list[StepResult]:
        """Run one step per batch; batches are tuples of loss() args."""
        return [self.step(*b) for b in batches]

    # -- measurement hooks --------------------------------------------------
    def master_snapshot(self) -> np.ndarray:
        """Copy of the CPU master parameters (for value-change profiling)."""
        return self.arena.snapshot()

    def divergence(self) -> float:
        """Max |master - device| — zero until DBA activates, then the
        live measure of DBA's approximation."""
        return float(np.max(np.abs(self.arena.params - self.gpu_params)))

    @property
    def loss_curve(self) -> list[float]:
        """Per-step losses of the run so far."""
        return [r.loss for r in self.history]

    # -- checkpointing (repro.state protocol) ------------------------------
    def state_dict(self) -> dict:
        """Complete resume state: everything a fresh trainer needs so
        that resuming is bit-exact — ``resume == never stopped``.

        Beyond the parameter/moment arrays this captures the values the
        model tensors hold (the compute copy the last step ran on, which
        an evaluation after training reads), comm-volume counters, the
        optimizer hyper-parameters, DBA activation state, and the full
        step history.
        """
        return {
            "mode": self.mode.value,
            "max_grad_norm": self.max_grad_norm,
            "step_count": self.step_count,
            "params": self.arena.params.copy(),
            "gpu_params": self.gpu_params.copy(),
            "model_params": self.arena.model_params(),
            "optimizer": self.optimizer.state_dict(),
            "policy": self.policy.state_dict(),
            "volume": self.volume.state_dict(),
            "history": self._history_arrays(),
        }

    def _history_arrays(self) -> dict:
        """Column-wise array encoding of the StepResult history."""
        h = self.history
        return {
            "step": np.array([r.step for r in h], dtype=np.int64),
            "loss": np.array([r.loss for r in h], dtype=np.float64),
            "grad_norm": np.array([r.grad_norm for r in h], dtype=np.float64),
            "dba_active": np.array([r.dba_active for r in h], dtype=np.bool_),
            "param_payload_bytes": np.array(
                [r.param_payload_bytes for r in h], dtype=np.int64
            ),
            "grad_payload_bytes": np.array(
                [r.grad_payload_bytes for r in h], dtype=np.int64
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this trainer.

        Raises
        ------
        repro.state.StateMismatchError
            When the checkpoint does not fit this trainer: different
            parameter count or trainer mode — or a checkpoint whose run
            used a training-recipe feature the trainer no longer has
            (mixed precision, gradient accumulation, an LR schedule),
            which it could only resume by dropping that feature's state.
        """
        params = state["params"]
        if params.shape != (self.arena.n_params,):
            raise StateMismatchError(
                f"checkpoint parameter count does not match the model "
                f"(checkpoint has {params.shape[0] if params.ndim else '?'}, "
                f"model has {self.arena.n_params})"
            )
        if state["mode"] != self.mode.value:
            raise StateMismatchError(
                f"checkpoint was written by a {state['mode']!r} trainer "
                f"but this trainer runs {self.mode.value!r}; resuming "
                "across modes would change the dataflow mid-run"
            )
        for key, (default, feature) in _REMOVED_FEATURES.items():
            value = state.get(key, default)
            if (value is not None) if default is None else value != default:
                raise StateMismatchError(
                    f"checkpoint was written by a run using {feature} "
                    f"({key} is set), which this trainer no longer "
                    "supports; resuming it would drop that state"
                )

        self.arena.params[...] = params
        self.gpu_params = np.asarray(
            state["gpu_params"], dtype=np.float32
        ).copy()
        self.optimizer.load_state_dict(state["optimizer"])
        self.policy.load_state_dict(state["policy"])
        self.volume.load_state_dict(state["volume"])
        self.max_grad_norm = float(state["max_grad_norm"])
        self.step_count = int(state["step_count"])
        hist = state["history"]
        self.history = [
            StepResult(
                step=int(hist["step"][i]),
                loss=float(hist["loss"][i]),
                grad_norm=float(hist["grad_norm"][i]),
                dba_active=bool(hist["dba_active"][i]),
                param_payload_bytes=int(hist["param_payload_bytes"][i]),
                grad_payload_bytes=int(hist["grad_payload_bytes"][i]),
            )
            for i in range(len(hist["step"]))
        ]
        # Checkpoints written before the model's values were saved
        # restore the device copy into the model instead.
        self.arena.push_params(state.get("model_params", self.gpu_params))

    def fork(
        self,
        mode: TrainerMode | None = None,
        policy: ActivationPolicy | None = None,
    ) -> "OffloadTrainer":
        """An independent copy of this trainer, optionally continuing
        under another ``mode`` or DBA ``policy``.

        The copy trains a deep copy of the model and is restored from
        :meth:`state_dict` — the resume path — so stepping it is
        bit-exact with stepping this trainer.  ``mode`` and ``policy``
        (default: this trainer's) are installed after the load; the
        branch uses the policy object given, with its configuration.

        Every mode runs the same arithmetic until DBA activates (only
        the parameter transfer after ADAM differs), so a changed mode or
        policy yields the run that used them from step 0 — as long as
        neither run has activated DBA yet.  The change is refused once
        this trainer's DBA is active, and for a TECO-Reduction branch
        whose ``act_aft_steps`` lies before :attr:`step_count`.

        Raises
        ------
        ValueError
            For a mode or policy change after DBA activation (this
            trainer's or the branch's).
        """
        mode = self.mode if mode is None else mode
        source = self.policy.state_dict()
        target = source if policy is None else policy.state_dict()
        config = ("act_aft_steps", "dirty_bytes")
        if mode is self.mode and all(target[k] == source[k] for k in config):
            state = source
        else:
            # A pre-activated (e.g. shared) policy does not count: only
            # TECO-Reduction runs the byte-truncating transfer.
            if self.mode is TrainerMode.TECO_REDUCTION and self.policy.active:
                raise ValueError(
                    f"cannot fork into another mode or policy at step "
                    f"{self.step_count}: DBA has been active since step "
                    f"{self.policy.activated_at}"
                )
            if (
                mode is TrainerMode.TECO_REDUCTION
                and target["act_aft_steps"] < self.step_count
            ):
                raise ValueError(
                    f"cannot fork at step {self.step_count} into a "
                    f"{mode.value} run with act_aft_steps="
                    f"{target['act_aft_steps']}: its DBA would already "
                    "have activated"
                )
            state = {**target, "active": False, "activated_at": None}
        branch = OffloadTrainer(
            copy.deepcopy(self.model),
            mode=self.mode,
            grad_transform=self.grad_transform,
        )
        branch.load_state_dict(self.state_dict())
        branch.mode = mode
        branch.policy = ActivationPolicy() if policy is None else policy
        branch.policy.load_state_dict(state)
        return branch

    def save_checkpoint(self, path) -> None:
        """Write a versioned, CRC-checked checkpoint atomically.

        The file carries :meth:`state_dict` in the
        :mod:`repro.state.checkpoint` container — a crash mid-write
        leaves any previous checkpoint at ``path`` untouched.
        """
        save_state(
            path,
            self.state_dict(),
            meta={
                "writer": "repro.offload.trainer.OffloadTrainer",
                "n_params": self.arena.n_params,
                "mode": self.mode.value,
            },
        )

    def load_checkpoint(self, path) -> None:
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        Seed-era ``np.savez`` checkpoints load through a migration path:
        the fields they carry (parameters, device copy, ADAM state, DBA
        activation) are restored and everything the old format dropped
        (comm-volume counters, history) starts fresh — matching what those checkpoints actually contain.
        """
        if is_legacy_checkpoint(path):
            self._load_legacy_checkpoint(path)
            return
        state, _meta = load_state(path)
        self.load_state_dict(state)

    def _load_legacy_checkpoint(self, path) -> None:
        """Migrate a seed-format ``np.savez`` checkpoint."""
        with np.load(path) as data:
            if data["params"].shape != (self.arena.n_params,):
                raise StateMismatchError(
                    "checkpoint parameter count does not match the model"
                )
            self.arena.params[...] = data["params"]
            self.gpu_params = data["gpu_params"].copy()
            self.optimizer.m[...] = data["adam_m"]
            self.optimizer.v[...] = data["adam_v"]
            self.optimizer.step_count = int(data["adam_steps"])
            self.step_count = int(data["step_count"])
            self.policy._active = bool(data["dba_active"])
            at = int(data["dba_activated_at"])
            self.policy._activated_at = None if at < 0 else at
        self.arena.push_params(self.gpu_params)
