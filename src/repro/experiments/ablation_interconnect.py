"""Ablation — PCIe generation sensitivity.

The paper motivates TECO on PCIe 3.0 (and notes PCIe 5.0 still leaves
hundreds-of-MB transfers at ~10 ms per layer group).  This ablation reruns
the speedup comparison on PCIe 3/4/5 physical layers: faster links shrink
but do not eliminate TECO's advantage at small batch, because the
coarse-grained baseline still exposes its transfer tails and DMA setup.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.registry import register, renderer
from repro.interconnect.cxl import CXLLinkModel
from repro.interconnect.pcie import PCIeGen, PCIeLinkModel
from repro.models import get_model
from repro.offload import HardwareParams, SystemKind, simulate_system
from repro.utils.tables import format_table
from repro.utils.units import GB

__all__ = ["run_interconnect_ablation", "render_interconnect"]


@register(
    "interconnect",
    "Ablation — PCIe generation sensitivity",
    tags=("ablation", "timing"),
)
def run_interconnect_ablation(
    model: str = "bert-large-cased",
    batch: int = 4,
) -> list[dict]:
    """Run the experiment; returns one dict per row."""
    spec = get_model(model)
    rows = []
    for gen in (PCIeGen.GEN3, PCIeGen.GEN4, PCIeGen.GEN5):
        pcie = PCIeLinkModel(gen=gen, lanes=16, payload_efficiency=0.85)
        cxl = CXLLinkModel(pcie=PCIeLinkModel(gen=gen, lanes=16))
        hw = dataclasses.replace(
            HardwareParams.paper_default(), pcie=pcie, cxl=cxl
        )
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw)
        red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw)
        rows.append(
            {
                "gen": gen.name,
                "raw_gbps": pcie.raw_bandwidth.bytes_per_second / GB,
                "baseline_comm_fraction": base.communication_fraction,
                "speedup": red.speedup_over(base),
            }
        )
    return rows


@renderer("interconnect")
def render_interconnect(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["PCIe gen", "raw GB/s", "baseline comm fraction", "TECO-Reduction speedup"],
        [
            (
                r["gen"],
                f"{r['raw_gbps']:.1f}",
                f"{r['baseline_comm_fraction']:.0%}",
                f"{r['speedup']:.2f}x",
            )
            for r in rows
        ],
        title="Ablation — PCIe generation sensitivity (batch 4)",
    )
