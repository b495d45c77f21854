"""Ablation — sequence-length sensitivity (a calibration transparency
check).

Per-model training sequence lengths are the one quantity the paper does
not report, so they are calibration choices here (docs/CALIBRATION.md).
This ablation sweeps the sequence length and shows the speedup varies
smoothly and stays within the paper's band over a wide range — i.e. the
reproduction's conclusions do not hinge on the calibrated values.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.utils.tables import format_table

__all__ = ["run_seqlen_ablation", "render_seqlen"]


@register(
    "seqlen",
    "Ablation — sequence-length sensitivity",
    tags=("ablation", "timing"),
)
def run_seqlen_ablation(
    model: str = "bert-large-cased",
    batch: int = 4,
    seq_lens: tuple[int, ...] = (32, 64, 128, 256, 512),
) -> list[dict]:
    """Run the experiment; returns one dict per row."""
    base_spec = get_model(model)
    hw = HardwareParams.paper_default()
    rows = []
    for seq in seq_lens:
        spec = dataclasses.replace(base_spec, seq_len=seq)
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw)
        red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw)
        rows.append(
            {
                "seq_len": seq,
                "comm_fraction": base.communication_fraction,
                "speedup": red.speedup_over(base),
            }
        )
    return rows


@renderer("seqlen")
def render_seqlen(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["seq len", "baseline comm fraction", "TECO-Reduction speedup"],
        [
            (
                r["seq_len"],
                f"{r['comm_fraction']:.0%}",
                f"{r['speedup']:.2f}x",
            )
            for r in rows
        ],
        title="Ablation — sequence-length sensitivity (calibration check)",
    )
