"""E-F12 — Figure 12: per-phase time breakdown (T5-large).

The paper decomposes training time into forward-backward, gradient
transfer exposed to the critical path, gradient optimizer (clip), ADAM,
and parameter transfer exposed — for ZeRO-Offload, TECO-CXL and
TECO-Reduction at batch sizes 4 and 8.  Key shapes: gradient transfer is
completely hidden by TECO at batch 8 (>=69% hidden at smaller batches);
TECO-CXL cuts exposed parameter transfer by ~76% at batch 4 and DBA hides
the rest.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.utils.tables import format_table
from repro.utils.units import seconds_human

__all__ = ["run_fig12", "render_fig12"]

SYSTEMS = (
    SystemKind.ZERO_OFFLOAD,
    SystemKind.TECO_CXL,
    SystemKind.TECO_REDUCTION,
)


@register(
    "fig12",
    "Figure 12 — T5-large phase breakdown",
    tags=("figure", "timing"),
)
def run_fig12(
    model: str = "t5-large",
    batch_sizes: tuple[int, ...] = (4, 8),
) -> list[dict]:
    """One row per (system, batch) with the five phase components."""
    spec = get_model(model)
    hw = HardwareParams.paper_default()
    rows = []
    for batch in batch_sizes:
        for kind in SYSTEMS:
            bd = simulate_system(kind, spec, batch, hw)
            rows.append(
                {
                    "system": kind.value,
                    "batch": batch,
                    "forward_backward": bd.forward_backward,
                    "grad_transfer_exposed": bd.grad_transfer_exposed,
                    "grad_clip": bd.grad_clip,
                    "optimizer": bd.optimizer,
                    "param_transfer_exposed": bd.param_transfer_exposed,
                    "total": bd.total,
                    "grad_transfer_raw": bd.grad_transfer_raw,
                    "param_transfer_raw": bd.param_transfer_raw,
                }
            )
    return rows


@renderer("fig12")
def render_fig12(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["system", "batch", "fwd+bwd", "grad xfer", "clip", "adam", "param xfer", "total"],
        [
            (
                r["system"],
                r["batch"],
                seconds_human(r["forward_backward"]),
                seconds_human(r["grad_transfer_exposed"]),
                seconds_human(r["grad_clip"]),
                seconds_human(r["optimizer"]),
                seconds_human(r["param_transfer_exposed"]),
                seconds_human(r["total"]),
            )
            for r in rows
        ],
        title="Figure 12 — time breakdown (T5-large; exposed components)",
    )
