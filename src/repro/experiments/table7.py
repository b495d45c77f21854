"""E-T7 — Table VII: ZeRO-Quant vs TECO-Reduction training time.

Paper: Bert-base-uncased on GLUE-MNLI — ZeRO-Quant 5.8 hours,
TECO-Reduction 2.03 hours (2.87x), because quantized training drags a
full-precision teacher along.
"""

from __future__ import annotations

from repro.compression.quant import ZeroQuantTimeModel, teco_training_hours
from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload import HardwareParams
from repro.utils.tables import format_table

__all__ = ["run_table7", "render_table7", "PAPER_TABLE7"]

PAPER_TABLE7 = {"zero-quant": 5.8, "teco-reduction": 2.03}

#: GLUE-MNLI fine-tune: ~393k examples x 3 epochs at batch 16.
MNLI_STEPS = 73_700
MNLI_BATCH = 16


@register(
    "table7",
    "Table VII — ZeRO-Quant comparison",
    tags=("table", "timing"),
)
def run_table7(
    n_steps: int = MNLI_STEPS,
    batch: int = MNLI_BATCH,
) -> list[dict]:
    """Run the experiment; returns one dict per row."""
    hw = HardwareParams.paper_default()
    spec = get_model("bert-base-uncased")
    zq = ZeroQuantTimeModel(hw).training_hours(spec, batch, n_steps)
    teco = teco_training_hours(spec, batch, n_steps, hw)
    return [
        {
            "system": "zero-quant",
            "task": "GLUE-MNLI (proxy step count)",
            "model": spec.name,
            "hours": zq,
            "paper_hours": PAPER_TABLE7["zero-quant"],
        },
        {
            "system": "teco-reduction",
            "task": "GLUE-MNLI (proxy step count)",
            "model": spec.name,
            "hours": teco,
            "paper_hours": PAPER_TABLE7["teco-reduction"],
        },
    ]


@renderer("table7")
def render_table7(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    ratio = rows[0]["hours"] / rows[1]["hours"]
    table = format_table(
        ["system", "model", "hours (ours)", "hours (paper)"],
        [
            (r["system"], r["model"], f"{r['hours']:.2f}", f"{r['paper_hours']:.2f}")
            for r in rows
        ],
        title="Table VII — lossy-compression baseline (teacher-student)",
    )
    return table + f"\nratio: {ratio:.2f}x (paper: 2.86x)"
