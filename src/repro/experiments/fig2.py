"""E-F2 — Figure 2: distribution of value-changed bytes across steps.

The paper fine-tunes Bert-large-cased on IMDB and classifies, per
consecutive step pair, which bytes of each changed FP32 parameter (a) and
gradient (b) differ.  Finding: ~80% of changed parameters change only the
last byte, most of the rest only the last two; gradients change all bytes.

Here the same measurement runs over a tiny classifier proxy fine-tuned on
the synthetic IMDB stand-in, using the master-parameter snapshots of the
functional offload trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.registry import register, renderer
from repro.experiments.runner import pretrained_classifier
from repro.offload import OffloadTrainer
from repro.profiling import ValueChangeProfiler
from repro.utils.rng import make_rng
from repro.utils.tables import format_table

__all__ = ["Fig2Result", "run_fig2", "run_fig2_rows", "render_fig2"]


@dataclass(frozen=True)
class Fig2Result:
    """Per-step case fractions for parameters and gradients."""

    param_steps: list[dict]
    grad_steps: list[dict]
    param_means: dict[str, float]
    grad_means: dict[str, float]


#: Mid-fine-tuning learning rate: changes land in the low *two* bytes.
MID_TRAINING_LR = 2e-5

#: Near-convergence effective step size: ~80% of changes confine to the
#: last byte, exactly the paper's Figure 2(a) distribution ("the first two
#: cases become more common when the training is close to converge").
NEAR_CONVERGENCE_LR = 5e-7


def run_fig2(
    n_steps: int, lr: float = MID_TRAINING_LR, seed: int = 0
) -> Fig2Result:
    """Fine-tune the proxy, profiling parameter and gradient byte changes.

    The case-1/case-2 split is governed by the per-step relative update
    size: pass :data:`NEAR_CONVERGENCE_LR` to reproduce the paper's
    last-byte-dominant distribution, :data:`MID_TRAINING_LR` for the
    mid-training last-two-bytes regime.  Low-two-byte dominance — the
    property DBA needs — holds in both.
    """
    if n_steps < 2:
        raise ValueError("need at least two steps")
    setup = pretrained_classifier(seed=seed, finetune_batches=n_steps)
    model = setup.fresh_model(make_rng(seed + 50))
    trainer = OffloadTrainer(model, lr=lr)
    param_prof = ValueChangeProfiler()
    grad_prof = ValueChangeProfiler()
    param_prof.observe(trainer.master_snapshot())
    for batch in setup.train_batches:
        trainer.step(*batch)
        param_prof.observe(trainer.master_snapshot())
        grad_prof.observe(trainer.arena.grads.copy())

    def rows(profiler: ValueChangeProfiler) -> list[dict]:
        return [
            {
                "step": s.step,
                "last_byte": s.last_byte,
                "last_two_bytes": s.last_two_bytes,
                "other": s.other,
                "changed_fraction": s.changed_fraction,
            }
            for s in profiler.history
        ]

    return Fig2Result(
        param_steps=rows(param_prof),
        grad_steps=rows(grad_prof),
        param_means=param_prof.mean_fractions(),
        grad_means=grad_prof.mean_fractions(),
    )


@register(
    "fig2",
    "Figure 2 — value-changed byte distribution",
    tags=("figure", "functional"),
)
def run_fig2_rows(n_steps: int = 40, seed: int = 0) -> list[dict]:
    """Mean byte-change fractions: parameters near convergence and
    mid-training, and gradients (one row each)."""
    near = run_fig2(n_steps=n_steps, lr=NEAR_CONVERGENCE_LR, seed=seed)
    mid = run_fig2(n_steps=n_steps, lr=MID_TRAINING_LR, seed=seed)
    return [
        {"tensor": label, **means}
        for label, means in (
            ("params (near convergence)", near.param_means),
            ("params (mid-training)", mid.param_means),
            ("gradients", mid.grad_means),
        )
    ]


@renderer("fig2")
def render_fig2(rows: list[dict]) -> str:
    """Render the rows as a plain-text table."""
    return format_table(
        ["tensor", "last byte", "last 2 bytes", "other"],
        [
            (
                r["tensor"],
                f"{r['last_byte']:.0%}",
                f"{r['last_two_bytes']:.0%}",
                f"{r['other']:.0%}",
            )
            for r in rows
        ],
        title="Figure 2 — value-changed byte distribution",
    )
