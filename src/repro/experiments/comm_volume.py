"""E-C — Section VIII-C: communication volume and DBA's contribution.

Paper: DBA halves the parameter transfer volume (gradients are untouched);
the DBA volume cut alone contributes 0.8%-7.3% end-to-end improvement; the
headline communication-overhead reduction is 93.7% on average (up to
100%).
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import evaluation_models
from repro.models.specs import ModelFamily
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.utils.tables import format_table

__all__ = ["run_comm_volume", "render_comm_volume"]


@register(
    "comm-volume",
    "Sec VIII-C — communication volume",
    tags=("table", "timing"),
)
def run_comm_volume(batch: int = 4) -> list[dict]:
    """Run the experiment; returns one dict per row."""
    hw = HardwareParams.paper_default()
    rows = []
    for spec in evaluation_models():
        b = batch if spec.family is not ModelFamily.GNN else 1
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, b, hw)
        cxl = simulate_system(SystemKind.TECO_CXL, spec, b, hw)
        red = simulate_system(SystemKind.TECO_REDUCTION, spec, b, hw)
        rows.append(
            {
                "model": spec.name,
                # DBA's wire-volume saving relative to TECO-CXL's params.
                "param_volume_reduction": (
                    1.0
                    - (red.wire_bytes - _grad_wire(cxl, spec))
                    / max(cxl.wire_bytes - _grad_wire(cxl, spec), 1)
                ),
                "comm_overhead_reduction": red.comm_overhead_reduction_vs(base),
                "dba_perf_contribution": (cxl.total - red.total) / base.total,
            }
        )
    return rows


def _grad_wire(bd, spec) -> float:
    """Gradient share of the CXL wire volume (never DBA-compressed)."""
    n_lines = -(-spec.gradient_bytes // 64)
    return n_lines * 68.0


def average(rows: list[dict], key: str) -> float:
    """Mean of ``key`` across rows."""
    return sum(r[key] for r in rows) / len(rows)


@renderer("comm-volume")
def render_comm_volume(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    table = format_table(
        ["model", "param volume cut", "comm overhead cut", "DBA perf gain"],
        [
            (
                r["model"],
                f"{r['param_volume_reduction']:.0%}",
                f"{r['comm_overhead_reduction']:.1%}",
                f"{r['dba_perf_contribution']:.1%}",
            )
            for r in rows
        ],
        title=(
            "Section VIII-C — communication volume (paper: params -50%, "
            "overhead -93.7% avg, DBA gain 0.8-7.3%)"
        ),
    )
    return (
        table
        + f"\naverage overhead reduction: "
        f"{average(rows, 'comm_overhead_reduction'):.1%}"
    )
