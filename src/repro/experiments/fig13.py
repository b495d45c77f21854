"""E-F13 — Figure 13: when to activate DBA (``act_aft_steps`` sweep).

Paper (GPT-2, 1775 total steps): activating DBA at step 0 gives the best
speedup (1.63x) but the worst perplexity (22.50 vs 21.05 without DBA);
activating very late approaches no-DBA accuracy but only 1.15x speedup;
the default 500 "strikes a balance".

Two coupled measurements:

* **accuracy side** (functional): fine-tune the decoder proxy with DBA
  activated at each sweep point; report eval perplexity.
* **speedup side** (timing): the run's average step time mixes TECO-CXL
  steps (before activation) and TECO-Reduction steps (after); speedup is
  against ZeRO-Offload.
"""

from __future__ import annotations

from repro.dba import ActivationPolicy
from repro.experiments.registry import register, renderer
from repro.experiments.runner import (
    Branch,
    checkpoint_file,
    finetune_branches,
    pretrained_lm,
)
from repro.models import get_model
from repro.offload import (
    HardwareParams,
    SystemKind,
    TrainerMode,
    simulate_system,
)
from repro.utils.rng import make_rng
from repro.utils.tables import format_table

__all__ = ["run_fig13", "render_fig13", "mixed_speedup"]


def mixed_speedup(
    act_aft_steps: int,
    total_steps: int,
    batch: int = 4,
    model: str = "gpt2",
) -> float:
    """Whole-run speedup when DBA activates at ``act_aft_steps``."""
    if not 0 <= act_aft_steps <= total_steps:
        raise ValueError("act_aft_steps must be within the run")
    spec = get_model(model)
    hw = HardwareParams.paper_default()
    base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw).total
    cxl = simulate_system(SystemKind.TECO_CXL, spec, batch, hw).total
    red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw).total
    mixed = act_aft_steps * cxl + (total_steps - act_aft_steps) * red
    return base * total_steps / mixed


@register(
    "fig13",
    "Figure 13 — DBA activation sweep",
    tags=("figure", "functional", "timing"),
)
def run_fig13(
    sweep: tuple[int, ...] = (0, 20, 40, 80, 120),
    total_steps: int = 120,
    paper_total_steps: int = 1775,
    seed: int = 0,
    checkpoint_dir=None,
) -> list[dict]:
    """One row per activation point: proxy perplexity + modelled speedup.

    The timing side scales each sweep point to the paper's 1775-step run
    proportionally, so speedups are comparable with Figure 13.  The
    sweep points share their steps before activation: one trunk runs
    them and each point forks where it activates
    (:func:`~repro.experiments.runner.finetune_branches`).  With
    ``checkpoint_dir`` each sweep point's fine-tuning run checkpoints to
    its own file and resumes bit-exactly if the sweep is interrupted.
    """
    if any(not 0 <= s <= total_steps for s in sweep):
        raise ValueError("sweep points must lie within the run")
    setup = pretrained_lm(seed=seed, finetune_batches=total_steps)
    trainers = finetune_branches(
        lambda: setup.fresh_model(make_rng(seed + 1)),
        setup.state,
        setup.train_batches,
        [
            Branch(
                TrainerMode.TECO_REDUCTION,
                ActivationPolicy(act_aft_steps=act, dirty_bytes=2),
                checkpoint_file(
                    checkpoint_dir,
                    f"fig13-act{act}",
                    seed=seed,
                    total_steps=total_steps,
                ),
            )
            for act in sweep
        ],
    )
    rows = []
    for act, trainer in zip(sweep, trainers):
        ppl = trainer.model.perplexity(setup.eval_batch)
        paper_act = int(act / total_steps * paper_total_steps)
        rows.append(
            {
                "act_aft_steps": act,
                "perplexity": ppl,
                "speedup": mixed_speedup(paper_act, paper_total_steps),
            }
        )
    return rows


@renderer("fig13")
def render_fig13(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["act_aft_steps", "perplexity (proxy)", "speedup"],
        [
            (r["act_aft_steps"], f"{r['perplexity']:.3f}", f"{r['speedup']:.2f}x")
            for r in rows
        ],
        title=(
            "Figure 13 — DBA activation sweep "
            "(paper: speedup 1.63x..1.15x, perplexity 22.50..21.21)"
        ),
    )
