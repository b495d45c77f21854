"""Ablation — delayed parameter update (DPU) vs TECO (Section II-A).

The paper argues ZeRO-Offload's DPU can hide parameter transfers behind
the *next* step's GPU window, but "the effectiveness of this technique
requires significantly large batch sizes to achieve enough arithmetic
intensity on GPU" — and it risks convergence (it trains on one-step-stale
parameters), which TECO avoids entirely.

This ablation sweeps batch size and reports how much communication DPU
manages to hide versus TECO-Reduction.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.offload.engines import ZeROOffloadEngine
from repro.utils.tables import format_table

__all__ = ["run_dpu_ablation", "render_dpu_ablation"]


@register(
    "dpu",
    "Ablation — delayed parameter update vs TECO",
    tags=("ablation", "timing"),
)
def run_dpu_ablation(
    model: str = "bert-large-cased",
    batch_sizes: tuple[int, ...] = (1, 4, 8, 16, 32, 64),
) -> list[dict]:
    """Run the experiment; returns one dict per row."""
    spec = get_model(model)
    hw = HardwareParams.paper_default()
    rows = []
    for batch in batch_sizes:
        plain = ZeROOffloadEngine(spec, batch, hw).simulate_step()
        dpu = ZeROOffloadEngine(spec, batch, hw, dpu=True).simulate_step()
        teco = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw)
        rows.append(
            {
                "batch": batch,
                "plain_comm_exposed": plain.communication_exposed,
                "dpu_comm_exposed": dpu.communication_exposed,
                "teco_comm_exposed": teco.communication_exposed,
                "dpu_hidden_fraction": 1.0
                - dpu.communication_exposed
                / max(plain.communication_exposed, 1e-12),
                "dpu_speedup": dpu.speedup_over(plain),
                "teco_speedup": teco.speedup_over(plain),
            }
        )
    return rows


def dpu_requires_large_batch(rows: list[dict]) -> bool:
    """The Section II-A claim: DPU's hidden fraction grows with batch and
    is partial at small batch."""
    fracs = [r["dpu_hidden_fraction"] for r in rows]
    return fracs == sorted(fracs) and fracs[0] < 0.999


@renderer("dpu")
def render_dpu_ablation(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["batch", "DPU hides", "DPU speedup", "TECO speedup"],
        [
            (
                r["batch"],
                f"{r['dpu_hidden_fraction']:.0%}",
                f"{r['dpu_speedup']:.2f}x",
                f"{r['teco_speedup']:.2f}x",
            )
            for r in rows
        ],
        title=(
            "Ablation — DPU vs TECO (Section II-A: DPU needs large batch; "
            "TECO does not risk stale-parameter convergence)"
        ),
    )
