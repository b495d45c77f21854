"""E-F10 — Figure 10: training-loss curves, original vs TECO-Reduction.

Paper: with DBA active (after `act_aft_steps`), the loss curves of GPT-2
and Albert "show the similar trend and we use the same number of steps to
reach convergence".  Here: fine-tune the tiny decoder proxy from one
checkpoint under both systems and return both curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dba import ActivationPolicy
from repro.experiments.registry import register, renderer
from repro.experiments.runner import (
    FINETUNE_LR,
    checkpoint_file,
    finetune,
    pretrained_classifier,
    pretrained_lm,
)
from repro.offload import TrainerMode
from repro.utils.tables import format_table

__all__ = [
    "Fig10Result",
    "run_fig10",
    "run_fig10_albert",
    "run_fig10_rows",
    "run_fig10_albert_rows",
    "render_fig10",
]


@dataclass(frozen=True)
class Fig10Result:
    """Loss curves of the baseline and TECO-Reduction runs."""
    baseline_curve: list[float]
    teco_curve: list[float]
    act_aft_steps: int

    @property
    def final_gap(self) -> float:
        """|final-loss difference| between the two systems."""
        return abs(self.baseline_curve[-1] - self.teco_curve[-1])

    def smoothed(self, curve: list[float], window: int = 8) -> list[float]:
        """Moving-average smoothing for plotting/comparison."""
        x = np.asarray(curve, dtype=np.float64)
        kernel = np.ones(window) / window
        return np.convolve(x, kernel, mode="valid").tolist()

    #: Slack on the decreasing-trend check: a smoothed curve may end up
    #: to 5% above its start and still count as non-increasing (noise at
    #: tiny proxy scale).  Applied to BOTH curves symmetrically.
    TREND_TOLERANCE = 1.05

    @property
    def same_trend(self) -> bool:
        """Both smoothed curves end below where they started (within the
        same 5% tolerance for each) and their final smoothed values are
        within 25% of the initial loss."""
        b = self.smoothed(self.baseline_curve)
        t = self.smoothed(self.teco_curve)
        tol = self.TREND_TOLERANCE
        decreasing = b[-1] <= b[0] * tol and t[-1] <= t[0] * tol
        close = abs(b[-1] - t[-1]) < 0.25 * max(b[0], 1e-9)
        return decreasing and close


def _compare(
    setup,
    act_aft_steps: int,
    seed: int,
    lr: float,
    checkpoint_dir=None,
    tag: str = "fig10",
    profile=None,
) -> Fig10Result:
    def ckpt(run: str):
        return checkpoint_file(
            checkpoint_dir,
            f"{tag}-{run}",
            seed=seed,
            n_steps=len(setup.train_batches),
            act_aft_steps=act_aft_steps,
            lr=lr,
        )

    baseline = finetune(
        setup,
        TrainerMode.ZERO_OFFLOAD,
        lr=lr,
        seed=seed + 1,
        checkpoint_path=ckpt("baseline"),
        profile=profile,
    )
    teco = finetune(
        setup,
        TrainerMode.TECO_REDUCTION,
        lr=lr,
        seed=seed + 1,
        policy=ActivationPolicy(act_aft_steps=act_aft_steps, dirty_bytes=2),
        checkpoint_path=ckpt("teco"),
        profile=profile,
    )
    return Fig10Result(
        baseline_curve=baseline.loss_curve,
        teco_curve=teco.loss_curve,
        act_aft_steps=act_aft_steps,
    )


def run_fig10(
    n_steps: int,
    act_aft_steps: int,
    seed: int = 0,
    lr: float = FINETUNE_LR,
    checkpoint_dir=None,
    profile=None,
) -> Fig10Result:
    """The GPT-2 panel: decoder-proxy fine-tuning loss curves.

    Pass ``checkpoint_dir`` to make the two fine-tuning runs
    interruptible: killed sweeps resume bit-exactly from their last
    checkpoint on the next invocation.  ``profile`` (a
    :class:`repro.obs.Profile`) records per-step phase spans and payload
    metrics from both fine-tuning runs.
    """
    setup = pretrained_lm(seed=seed, finetune_batches=n_steps)
    return _compare(
        setup,
        act_aft_steps,
        seed,
        lr,
        checkpoint_dir=checkpoint_dir,
        tag="fig10-gpt2",
        profile=profile,
    )


def run_fig10_albert(
    n_steps: int,
    act_aft_steps: int,
    seed: int = 0,
    lr: float = FINETUNE_LR,
    checkpoint_dir=None,
    profile=None,
) -> Fig10Result:
    """The Albert panel: shared-layer encoder fine-tuning loss curves."""
    setup = pretrained_classifier(seed=seed, finetune_batches=n_steps)
    return _compare(
        setup,
        act_aft_steps,
        seed,
        lr,
        checkpoint_dir=checkpoint_dir,
        tag="fig10-albert",
        profile=profile,
    )


def rows_from_result(result: Fig10Result) -> list[dict]:
    """Canonical per-step rows of a :class:`Fig10Result`."""
    return [
        {
            "step": i,
            "baseline": result.baseline_curve[i],
            "teco": result.teco_curve[i],
        }
        for i in range(len(result.baseline_curve))
    ]


def _rows_runner(panel):
    """The registered runner of one Figure-10 panel: ``panel`` as
    per-step rows."""

    def rows(
        n_steps: int = 100,
        act_aft_steps: int = 25,
        lr: float = FINETUNE_LR,
        seed: int = 0,
        checkpoint_dir=None,
        profile=None,
    ) -> list[dict]:
        result = panel(
            n_steps,
            act_aft_steps,
            seed=seed,
            lr=lr,
            checkpoint_dir=checkpoint_dir,
            profile=profile,
        )
        return rows_from_result(result)

    rows.__doc__ = f":func:`{panel.__name__}` as per-step rows."
    return rows


run_fig10_rows = register(
    "fig10",
    "Figure 10 — loss curves with/without DBA",
    tags=("figure", "functional"),
)(_rows_runner(run_fig10))

run_fig10_albert_rows = register(
    "fig10-albert",
    "Figure 10 (Albert panel) — shared-layer encoder loss curves",
    tags=("figure", "functional"),
)(_rows_runner(run_fig10_albert))


@renderer("fig10")
@renderer("fig10-albert")
def render_fig10(rows: list[dict]) -> str:
    """Render about ten evenly spaced steps of both loss curves."""
    stride = max(1, len(rows) // 10)
    return format_table(
        ["step", "original", "TECO-Reduction"],
        [
            (r["step"], f"{r['baseline']:.4f}", f"{r['teco']:.4f}")
            for r in rows[::stride]
        ],
        title="Figure 10 — training loss curves",
    )
