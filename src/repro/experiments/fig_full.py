"""E-F10/F13 at full paper scale, one worker process per cell.

The registry's ``fig10``/``fig13`` entries default to reduced step
counts so the smoke path stays fast.  This module registers the
*full-size* runs — the paper's 1775 fine-tuning steps, DBA activation
at step 500, and the Figure-13 sweep over (0, 100, 500, 1000, 1775) —
and maps their independent cells (each a whole self-contained
fine-tuning run) over a :class:`~concurrent.futures.ProcessPoolExecutor`
with one worker per usable CPU, capped at the number of cells.

Each cell is a top-level (picklable) function that builds its own
memoized pre-trained setup, so a cell computes identically in any
worker; ``pool.map`` returns results in cell order.  The rows therefore
equal those of ``fig10``/``fig13`` run with the same parameters
(pinned by ``exp_smoke.py``).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from repro.dba import ActivationPolicy
from repro.experiments.fig10 import Fig10Result, rows_from_result
from repro.experiments.fig13 import render_fig13, run_fig13
from repro.experiments.runner import finetune, pretrained_lm
from repro.offload import TrainerMode

__all__ = [
    "FULL_STEPS",
    "FULL_ACT_AFT",
    "FULL_SWEEP",
    "run_fig10_full",
    "run_fig13_full",
]

#: The paper's GPT-2 fine-tuning run length (steps).
FULL_STEPS = 1775
#: The paper's default DBA activation point ("500 strikes a balance").
FULL_ACT_AFT = 500
#: Figure-13 activation sweep at full scale.
FULL_SWEEP = (0, 100, 500, 1000, 1775)


def _map_cells(fn, cells: list[tuple]) -> list:
    """``[fn(*args) for args in cells]``, one pool worker per usable CPU."""
    if not cells:
        return []
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(cpus, len(cells))) as pool:
        return list(pool.map(fn, *zip(*cells)))


def _fig10_cell(mode_name, n_steps, act_aft_steps, seed, lr):
    """One Figure-10 loss curve (baseline or TECO) as a sealed task."""
    setup = pretrained_lm(seed=seed, finetune_batches=n_steps)
    if mode_name == "baseline":
        trainer = finetune(setup, TrainerMode.ZERO_OFFLOAD, lr=lr, seed=seed + 1)
    else:
        trainer = finetune(
            setup,
            TrainerMode.TECO_REDUCTION,
            lr=lr,
            seed=seed + 1,
            policy=ActivationPolicy(act_aft_steps=act_aft_steps, dirty_bytes=2),
        )
    return trainer.loss_curve


def run_fig10_full(
    n_steps: int = FULL_STEPS,
    act_aft_steps: int = FULL_ACT_AFT,
    seed: int = 0,
    lr: float = 5e-4,
) -> Fig10Result:
    """Full-size Figure 10: baseline and TECO curves as two pool cells."""
    baseline, teco = _map_cells(
        _fig10_cell,
        [(mode, n_steps, act_aft_steps, seed, lr) for mode in ("baseline", "teco")],
    )
    return Fig10Result(
        baseline_curve=baseline, teco_curve=teco, act_aft_steps=act_aft_steps
    )


def _fig13_cell(act, total_steps, paper_total_steps, seed):
    """One Figure-13 sweep point (perplexity + modelled speedup)."""
    return run_fig13((act,), total_steps, paper_total_steps, seed)[0]


def run_fig13_full(
    sweep: tuple[int, ...] = FULL_SWEEP,
    total_steps: int = FULL_STEPS,
    paper_total_steps: int = FULL_STEPS,
    seed: int = 0,
) -> list[dict]:
    """Full-size Figure 13: one pool cell per activation point, rows in
    sweep order."""
    if any(not 0 <= s <= total_steps for s in sweep):
        raise ValueError("sweep points must lie within the run")
    return _map_cells(
        _fig13_cell, [(act, total_steps, paper_total_steps, seed) for act in sweep]
    )


# --- registry ------------------------------------------------------------

from repro.experiments.registry import register, renderer


@register(
    "fig10_full",
    "Figure 10 at full paper scale (1775 steps, one process per cell)",
    tags=("figure", "functional", "full"),
)
def _fig10_full_experiment(
    ctx, n_steps=FULL_STEPS, act_aft_steps=FULL_ACT_AFT, lr=5e-4
):
    result = run_fig10_full(
        n_steps=n_steps, act_aft_steps=act_aft_steps, seed=ctx.seed, lr=lr
    )
    return rows_from_result(result)


@renderer("fig10_full")
def _fig10_full_render(result):
    from repro.experiments.fig10 import _fig10_render

    return _fig10_render(result)


@register(
    "fig13_full",
    "Figure 13 at full paper scale (1775-step sweep, one process per cell)",
    tags=("figure", "functional", "timing", "full"),
)
def _fig13_full_experiment(
    ctx,
    sweep=FULL_SWEEP,
    total_steps=FULL_STEPS,
    paper_total_steps=FULL_STEPS,
):
    return run_fig13_full(
        sweep=tuple(sweep),
        total_steps=total_steps,
        paper_total_steps=paper_total_steps,
        seed=ctx.seed,
    )


@renderer("fig13_full")
def _fig13_full_render(result):
    return render_fig13(result.rows)
