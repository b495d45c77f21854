"""Ablation — the ``dirty_bytes`` knob (1..4).

The paper fixes ``dirty_bytes=2`` from Observation 2; this ablation maps
the whole trade-off surface: wire volume and speedup improve with fewer
dirty bytes while the functional accuracy cost grows — making the paper's
choice of 2 visibly the knee of the curve.
"""

from __future__ import annotations

from repro.dba import ActivationPolicy
from repro.experiments.registry import register, renderer
from repro.experiments.runner import Branch, finetune_branches, pretrained_lm
from repro.models import get_model
from repro.offload import HardwareParams, SystemKind, TrainerMode, simulate_system
from repro.offload.engines import TECOEngine
from repro.utils.rng import make_rng
from repro.utils.tables import format_table

__all__ = ["run_dirty_bytes_ablation", "render_dirty_bytes"]


@register(
    "dirty-bytes",
    "Ablation — dirty_bytes trade-off (1..4)",
    tags=("ablation", "timing", "functional"),
)
def run_dirty_bytes_ablation(
    model: str = "bert-large-cased",
    batch: int = 4,
    n_steps: int = 80,
    seed: int = 0,
) -> list[dict]:
    """One row per dirty_bytes in {1, 2, 3, 4}."""
    spec = get_model(model)
    hw = HardwareParams.paper_default()
    base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw)
    setup = pretrained_lm(seed=seed, finetune_batches=n_steps)
    dirty = (1, 2, 3, 4)
    # A 4-byte merge writes every byte of every word (the bitwise
    # identity, pinned in tests/test_dba.py), so that run's device copy
    # tracks the master exactly as the ZeRO-Offload baseline's does.
    baseline_tr, *trainers = finetune_branches(
        lambda: setup.fresh_model(make_rng(seed + 1)),
        setup.state,
        setup.train_batches,
        [Branch(TrainerMode.ZERO_OFFLOAD)]
        + [
            Branch(
                TrainerMode.TECO_REDUCTION,
                ActivationPolicy(act_aft_steps=n_steps // 5, dirty_bytes=db),
            )
            for db in dirty
            if db < 4
        ],
    )
    trainers.append(baseline_tr)
    baseline_ppl = baseline_tr.model.perplexity(setup.eval_batch)
    rows = []
    for db, tr in zip(dirty, trainers):
        timed = TECOEngine(
            spec, batch, hw, dba=(db < 4), dirty_bytes=db
        ).simulate_step()
        ppl = tr.model.perplexity(setup.eval_batch)
        rows.append(
            {
                "dirty_bytes": db,
                "speedup": timed.speedup_over(base),
                "wire_bytes": timed.wire_bytes,
                "perplexity": ppl,
                "perplexity_delta": ppl - baseline_ppl,
                "baseline_perplexity": baseline_ppl,
            }
        )
    return rows


@renderer("dirty-bytes")
def render_dirty_bytes(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["dirty_bytes", "speedup", "wire volume", "proxy ppl", "delta vs exact"],
        [
            (
                r["dirty_bytes"],
                f"{r['speedup']:.2f}x",
                f"{r['wire_bytes'] / 2**20:.0f} MiB",
                f"{r['perplexity']:.3f}",
                f"{r['perplexity_delta']:+.3f}",
            )
            for r in rows
        ],
        title=(
            "Ablation — dirty_bytes trade-off "
            "(paper default 2 = knee: half the volume, low-byte-only loss)"
        ),
    )
