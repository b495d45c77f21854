"""E-F11/T4 — Figure 11 + Table IV: speedups over ZeRO-Offload.

Paper (TECO-Reduction over ZeRO-Offload): GPT-2 1.82/1.52/1.32x, Albert
1.25/1.23/1.08x, Bert 1.6/1.62/1.41x, T5 1.73/1.58/- (batch 16 OOM),
GCNII fixed full-graph batch.  TECO-CXL trails TECO-Reduction by up to
21% (Figure 11).
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import evaluation_models
from repro.models.specs import ModelFamily
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.utils.tables import format_table

__all__ = ["run_fig11_table4", "render_speedups", "PAPER_TABLE4", "T5_OOM_BATCH"]

PAPER_TABLE4 = {
    ("gpt2", 4): 1.82,
    ("gpt2", 8): 1.52,
    ("gpt2", 16): 1.32,
    ("albert-xxlarge-v1", 4): 1.25,
    ("albert-xxlarge-v1", 8): 1.23,
    ("albert-xxlarge-v1", 16): 1.08,
    ("bert-large-cased", 4): 1.6,
    ("bert-large-cased", 8): 1.62,
    ("bert-large-cased", 16): 1.41,
    ("t5-large", 4): 1.73,
    ("t5-large", 8): 1.58,
}

#: T5-large at batch 16 exceeds V100 memory under ZeRO-Offload — the
#: paper's reported fact; `repro.offload.memory.MemoryModel` derives it at
#: T5's full sequence length (see tests/test_memory_and_cost.py).
T5_OOM_BATCH = 16

#: V100 HBM capacity governing the OOM rule.
GPU_MEMORY_BYTES = 32 * 2**30


def _t5_oom(name: str, batch: int) -> bool:
    return name == "t5-large" and batch >= T5_OOM_BATCH


@register(
    "fig11",
    "Figure 11 / Table IV — speedups",
    tags=("figure", "table", "timing"),
)
def run_fig11_table4(
    batch_sizes: tuple[int, ...] = (4, 8, 16),
) -> list[dict]:
    """One row per (model, batch): CXL and Reduction speedups.

    GCNII appears once (full-graph training fixes its batch); T5-large at
    batch 16 is marked OOM, as in the paper.
    """
    hw = HardwareParams.paper_default()
    rows: list[dict] = []
    for spec in evaluation_models():
        batches = (
            (batch_sizes[0],)
            if spec.family is ModelFamily.GNN
            else batch_sizes
        )
        for batch in batches:
            if _t5_oom(spec.name, batch):
                rows.append(
                    {
                        "model": spec.name,
                        "batch": batch,
                        "cxl_speedup": None,
                        "reduction_speedup": None,
                        "paper": None,
                        "oom": True,
                    }
                )
                continue
            base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw)
            cxl = simulate_system(SystemKind.TECO_CXL, spec, batch, hw)
            red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw)
            rows.append(
                {
                    "model": spec.name,
                    "batch": batch,
                    "cxl_speedup": cxl.speedup_over(base),
                    "reduction_speedup": red.speedup_over(base),
                    "paper": PAPER_TABLE4.get((spec.name, batch)),
                    "oom": False,
                }
            )
    return rows


@renderer("fig11")
def render_speedups(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    def fmt(value, suffix="x"):
        return "OOM" if value is None else f"{value:.2f}{suffix}"

    return format_table(
        ["model", "batch", "TECO-CXL", "TECO-Reduction", "paper (Reduction)"],
        [
            (
                r["model"],
                r["batch"],
                fmt(r["cxl_speedup"]),
                fmt(r["reduction_speedup"]),
                fmt(r["paper"]) if r["paper"] is not None else "-",
            )
            for r in rows
        ],
        title="Figure 11 / Table IV — speedup over ZeRO-Offload",
    )
