"""E-T1 — Table I: communication fraction of ZeRO-Offload training time.

Paper row (Bert-large-cased): 42.24% / 37.87% / 28.65% / 25.95% for batch
sizes 4 / 8 / 16 / 20.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.profiling import communication_fraction_rows
from repro.utils.tables import format_table

__all__ = ["run_table1", "render_table1", "PAPER_TABLE1"]

PAPER_TABLE1 = {4: 0.4224, 8: 0.3787, 16: 0.2865, 20: 0.2595}


@register(
    "table1",
    "Table I — ZeRO-Offload communication fractions",
    tags=("table", "timing"),
)
def run_table1(batch_sizes: tuple[int, ...] = (4, 8, 16, 20)) -> list[dict]:
    """Measured communication fractions plus the paper's reference."""
    rows = communication_fraction_rows(
        get_model("bert-large-cased"), batch_sizes
    )
    for row in rows:
        row["paper"] = PAPER_TABLE1.get(int(row["batch"]), float("nan"))
    return rows


@renderer("table1")
def render_table1(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["batch", "comm fraction (ours)", "paper"],
        [
            (int(r["batch"]), f"{r['comm_fraction']:.1%}", f"{r['paper']:.1%}")
            for r in rows
        ],
        title="Table I — ZeRO-Offload exposed communication (Bert-large-cased)",
    )
