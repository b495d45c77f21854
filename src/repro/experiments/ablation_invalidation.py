"""E-INV — Section IV-A2 ablation: invalidation- vs update-based CXL.

Paper: on-demand data transfer of the stock (invalidation) protocol
"increases training time by 56.6% on average (up to 99.7% in the case of
T5-large)" compared to pushing data at invalidation time (the update
extension).
"""

from __future__ import annotations

from repro.coherence.home_agent import CoherenceMode
from repro.experiments.registry import register, renderer
from repro.models import evaluation_models
from repro.models.specs import ModelFamily
from repro.offload import HardwareParams
from repro.offload.engines import TECOEngine
from repro.utils.tables import format_table

__all__ = ["run_invalidation_ablation", "render_ablation"]


@register(
    "invalidation",
    "Sec IV-A2 — invalidation vs update",
    tags=("ablation", "timing"),
)
def run_invalidation_ablation(batch: int = 4) -> list[dict]:
    """Per model: step time under update vs invalidation coherence."""
    hw = HardwareParams.paper_default()
    rows = []
    for spec in evaluation_models():
        b = batch if spec.family is not ModelFamily.GNN else 1
        upd = TECOEngine(
            spec, b, hw, coherence=CoherenceMode.UPDATE
        ).simulate_step()
        inv = TECOEngine(
            spec, b, hw, coherence=CoherenceMode.INVALIDATION
        ).simulate_step()
        rows.append(
            {
                "model": spec.name,
                "update_time": upd.total,
                "invalidation_time": inv.total,
                "slowdown": inv.total / upd.total - 1.0,
            }
        )
    return rows


def average_slowdown(rows: list[dict]) -> float:
    """Mean slowdown across the evaluated models."""
    return sum(r["slowdown"] for r in rows) / len(rows)


@renderer("invalidation")
def render_ablation(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    table = format_table(
        ["model", "invalidation vs update"],
        [(r["model"], f"+{r['slowdown']:.1%}") for r in rows],
        title=(
            "Section IV-A2 — cost of stock invalidation coherence "
            "(paper: +56.6% avg, up to +99.7% for T5-large)"
        ),
    )
    return table + f"\naverage: +{average_slowdown(rows):.1%}"
