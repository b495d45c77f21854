"""E-T6 — Table VI: impact of model size on TECO effectiveness.

Paper (batch 4): GPT-2 1.55/1.82x, GPT2-Medium 1.54/1.64x, GPT2-Large
1.67/1.79x, GPT2-11B 1.29/1.41x (TECO-CXL / TECO-Reduction).  The 11B
model's compute (63.4% of total) bounds what TECO can remove.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import gpt2_scaling_series
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.utils.tables import format_table

__all__ = ["run_table6", "render_table6", "PAPER_TABLE6"]

PAPER_TABLE6 = {
    "gpt2": (1.55, 1.82),
    "gpt2-medium": (1.54, 1.64),
    "gpt2-large": (1.67, 1.79),
    "gpt2-11b": (1.29, 1.41),
}


@register(
    "table6",
    "Table VI — model-size sensitivity",
    tags=("table", "timing"),
)
def run_table6(batch: int = 4) -> list[dict]:
    """Run the experiment; returns one dict per row."""
    hw = HardwareParams.paper_default()
    rows = []
    for spec in gpt2_scaling_series():
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw)
        cxl = simulate_system(SystemKind.TECO_CXL, spec, batch, hw)
        red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw)
        rows.append(
            {
                "model": spec.name,
                "params": spec.stored_params,
                "cxl_speedup": cxl.speedup_over(base),
                "reduction_speedup": red.speedup_over(base),
                "compute_fraction": base.compute / base.total,
                "paper_cxl": PAPER_TABLE6[spec.name][0],
                "paper_reduction": PAPER_TABLE6[spec.name][1],
            }
        )
    return rows


@renderer("table6")
def render_table6(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["model", "TECO-CXL", "TECO-Reduction", "paper CXL", "paper R"],
        [
            (
                r["model"],
                f"{r['cxl_speedup']:.2f}x",
                f"{r['reduction_speedup']:.2f}x",
                f"{r['paper_cxl']:.2f}x",
                f"{r['paper_reduction']:.2f}x",
            )
            for r in rows
        ],
        title="Table VI — model-size sensitivity (batch 4)",
    )
