"""Resume-equivalence harness: enforce ``resume == never stopped``.

For a given configuration this trains a tiny deterministic transformer N
steps (the *reference*), trains a second identical trainer to step k and
checkpoints it, resumes the checkpoint in a *third*, fresh trainer, runs
it to step N, and asserts bit-exact agreement on:

* the CPU master parameters and the device copy (which diverge under DBA);
* both ADAM moment arenas and the optimizer step counter;
* the full per-step loss curve (max |Δ| must be exactly 0, not "close");
* the cumulative comm-volume counters.

The default suite runs every ``TrainerMode``, plus a checkpoint straddling
DBA activation — optionally at the paper's step-500 threshold — and a
ZeRO-Offload run forked into TECO-Reduction before it checkpoints.  Run it via
``python -m repro verify-resume`` or ``make verify-resume``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from repro.dba import ActivationPolicy
from repro.offload import OffloadTrainer, TrainerMode
from repro.tensor.transformer import TinyTransformerLM
from repro.utils.tables import format_table

__all__ = [
    "ResumeCase",
    "ResumeReport",
    "build_demo_trainer",
    "demo_batches",
    "verify_resume",
    "default_suite",
    "run_verification_suite",
    "render_verification",
]

#: Shape of the tiny deterministic model the harness trains.
DEMO_MODEL = {"vocab": 16, "dim": 16, "n_heads": 2, "n_layers": 1, "max_seq": 12}


@dataclass(frozen=True)
class ResumeCase:
    """One configuration of the resume-equivalence experiment."""

    mode: TrainerMode = TrainerMode.ZERO_OFFLOAD
    #: Total steps of the reference (never-stopped) run.
    n_steps: int = 12
    #: Step after which the interrupted run checkpoints.
    checkpoint_step: int = 5
    #: DBA activation threshold (TECO-Reduction only).
    act_aft_steps: int = 8
    #: When set, the interrupted run trains in this mode (DBA never
    #: activating) and is forked into ``mode`` just before it
    #: checkpoints (:meth:`OffloadTrainer.fork`).
    fork_from: TrainerMode | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.checkpoint_step < self.n_steps:
            raise ValueError(
                "need 0 < checkpoint_step < n_steps so the run actually "
                "stops and then continues"
            )
        if self.fork_from is not None and (
            self.act_aft_steps < self.checkpoint_step
        ):
            raise ValueError(
                "a forked case needs act_aft_steps >= checkpoint_step: "
                "the fork must precede DBA activation"
            )

    @property
    def name(self) -> str:
        """Human-readable case id for reports."""
        return self.label or f"{self.mode.value}/ckpt@{self.checkpoint_step}"


@dataclass(frozen=True)
class ResumeReport:
    """Bit-exactness verdict of one :class:`ResumeCase`."""

    case: ResumeCase
    max_param_delta: float
    max_device_delta: float
    max_moment_delta: float
    loss_curve_equal: bool
    history_equal: bool
    volume_equal: bool
    step_count_equal: bool

    @property
    def ok(self) -> bool:
        """True when every compared quantity matched bit-exactly."""
        return (
            self.max_param_delta == 0.0
            and self.max_device_delta == 0.0
            and self.max_moment_delta == 0.0
            and self.loss_curve_equal
            and self.history_equal
            and self.volume_equal
            and self.step_count_equal
        )


def build_demo_trainer(
    mode: TrainerMode = TrainerMode.ZERO_OFFLOAD,
    act_aft_steps: int = 8,
    seed: int = 0,
    lr: float = 2e-3,
) -> OffloadTrainer:
    """A deterministic tiny-LM trainer (same recipe every call).

    Shared by the harness and the ``repro checkpoint`` / ``repro resume``
    CLI commands: two calls with equal arguments produce bit-identical
    trainers, which is what makes checkpoint-portability demos honest.
    """
    model = TinyTransformerLM(rng=np.random.default_rng(seed), **DEMO_MODEL)
    return OffloadTrainer(
        model,
        mode=mode,
        lr=lr,
        policy=ActivationPolicy(act_aft_steps=act_aft_steps, dirty_bytes=2),
    )


def demo_batches(n: int, seed: int = 1) -> list[tuple]:
    """``n`` deterministic LM batches for the demo trainer."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, DEMO_MODEL["vocab"], (4, DEMO_MODEL["max_seq"] - 2)),)
        for _ in range(n)
    ]


def verify_resume(
    case: ResumeCase, seed: int = 0, checkpoint_path=None
) -> ResumeReport:
    """Run the reference / interrupted / resumed triple for one case.

    ``checkpoint_path`` defaults to a temporary file (deleted afterward);
    pass a path to keep the checkpoint for inspection.
    """
    batches = demo_batches(case.n_steps, seed=seed + 1)

    def make() -> OffloadTrainer:
        return build_demo_trainer(
            mode=case.mode, act_aft_steps=case.act_aft_steps, seed=seed
        )

    reference = make()
    reference.train(batches)

    if case.fork_from is None:
        interrupted = make()
    else:
        interrupted = build_demo_trainer(
            mode=case.fork_from, act_aft_steps=case.n_steps, seed=seed
        )
    interrupted.train(batches[: case.checkpoint_step])
    if case.fork_from is not None:
        interrupted = interrupted.fork(
            case.mode,
            ActivationPolicy(act_aft_steps=case.act_aft_steps, dirty_bytes=2),
        )

    cleanup = checkpoint_path is None
    if checkpoint_path is None:
        fd, checkpoint_path = tempfile.mkstemp(suffix=".teco-ckpt")
        os.close(fd)
    try:
        interrupted.save_checkpoint(checkpoint_path)
        resumed = make()
        resumed.load_checkpoint(checkpoint_path)
        resumed.train(batches[case.checkpoint_step :])
    finally:
        if cleanup and os.path.exists(checkpoint_path):
            os.unlink(checkpoint_path)

    moment_delta = max(
        float(np.max(np.abs(resumed.optimizer.m - reference.optimizer.m))),
        float(np.max(np.abs(resumed.optimizer.v - reference.optimizer.v))),
    )
    return ResumeReport(
        case=case,
        max_param_delta=float(
            np.max(np.abs(resumed.arena.params - reference.arena.params))
        ),
        max_device_delta=float(
            np.max(np.abs(resumed.gpu_params - reference.gpu_params))
        ),
        max_moment_delta=moment_delta,
        loss_curve_equal=resumed.loss_curve == reference.loss_curve,
        history_equal=resumed.history == reference.history,
        volume_equal=(
            resumed.volume.state_dict() == reference.volume.state_dict()
        ),
        step_count_equal=resumed.step_count == reference.step_count,
    )


def default_suite(include_paper_activation: bool = False) -> list[ResumeCase]:
    """The standard case sweep.

    Every trainer mode checkpointed at step 5 of 12.  A DBA-straddle case
    checkpoints *before* the activation threshold and resumes across it;
    with ``include_paper_activation`` that straddle also runs at the
    paper's ``act_aft_steps=500`` (hundreds of real training steps —
    seconds of runtime, so it is opt-in).  A forked case trains the
    interrupted run in ZeRO-Offload and forks it into TECO-Reduction
    before the checkpoint, so fork -> checkpoint -> resume is held to
    the same bar.
    """
    cases = [ResumeCase(mode=mode) for mode in TrainerMode]
    # Checkpoint at 5, activation at 8, end at 12: resume crosses the
    # activation edge, so the resumed trainer must flip DBA on at the
    # exact same step as the never-stopped reference.
    cases.append(
        ResumeCase(
            mode=TrainerMode.TECO_REDUCTION,
            checkpoint_step=5,
            act_aft_steps=8,
            n_steps=12,
            label="dba-straddle/small",
        )
    )
    # A ZeRO-Offload run forked into TECO-Reduction at step 5, then
    # checkpointed and resumed across the activation at 8, must equal a
    # TECO-Reduction run from step 0.
    cases.append(
        ResumeCase(
            mode=TrainerMode.TECO_REDUCTION,
            checkpoint_step=5,
            act_aft_steps=8,
            n_steps=12,
            fork_from=TrainerMode.ZERO_OFFLOAD,
            label="fork/zero-offload->teco-reduction",
        )
    )
    if include_paper_activation:
        cases.append(
            ResumeCase(
                mode=TrainerMode.TECO_REDUCTION,
                checkpoint_step=497,
                act_aft_steps=500,
                n_steps=506,
                label="dba-straddle/paper-step-500",
            )
        )
    return cases


def run_verification_suite(
    include_paper_activation: bool = False, seed: int = 0
) -> list[ResumeReport]:
    """Run :func:`verify_resume` over :func:`default_suite`."""
    return [
        verify_resume(case, seed=seed)
        for case in default_suite(include_paper_activation)
    ]


def render_verification(reports: list[ResumeReport]) -> str:
    """Plain-text verdict table for the CLI / make target."""
    rows = [
        (
            r.case.name,
            f"{r.max_param_delta:.0e}" if r.max_param_delta else "0",
            f"{r.max_device_delta:.0e}" if r.max_device_delta else "0",
            f"{r.max_moment_delta:.0e}" if r.max_moment_delta else "0",
            "yes" if r.loss_curve_equal else "NO",
            "yes" if r.volume_equal else "NO",
            "PASS" if r.ok else "FAIL",
        )
        for r in reports
    ]
    table = format_table(
        [
            "case",
            "|Δparam|",
            "|Δdevice|",
            "|Δmoments|",
            "loss curve",
            "comm volume",
            "verdict",
        ],
        rows,
        title="Resume equivalence — resume == never stopped (bit-exact)",
    )
    verdict = (
        "all cases bit-exact"
        if all(r.ok for r in reports)
        else "RESUME EQUIVALENCE VIOLATED"
    )
    return f"{table}\n{verdict}"


def straddle_case_at(act_aft_steps: int, margin: int = 3) -> ResumeCase:
    """A TECO-Reduction case whose checkpoint straddles ``act_aft_steps``."""
    if act_aft_steps < 1:
        raise ValueError("act_aft_steps must be >= 1 to straddle it")
    return replace(
        ResumeCase(mode=TrainerMode.TECO_REDUCTION),
        checkpoint_step=max(1, act_aft_steps - margin),
        act_aft_steps=act_aft_steps,
        n_steps=act_aft_steps + margin * 2,
        label=f"dba-straddle/{act_aft_steps}",
    )
