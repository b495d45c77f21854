"""E-HW — Section VIII-D: Aggregator/Disaggregator overhead analysis.

Three components:

* FPGA-to-ASIC scaled area/power/latency of both units (paper: 0.0127 W
  and 1.28 ns for the Aggregator; 0.017 W and 1.126 ns for the
  Disaggregator, on the 1:33 / 1:14 / 1:3.5 conversion ratios);
* the pipelining argument: a line occupies the CXL wire ~4 ns, so the
  ~1.2 ns unit latency amortizes to zero (the evaluation still charges a
  conservative 1 ns);
* the Disaggregator's extra DRAM read per merged line, replayed through
  the DRAM timing model: paper reports total DRAM cycles growing 2.48x
  (sequential) and 1.9x (shuffled) — invisible end-to-end behind the
  GDDR5-vs-PCIe bandwidth gap.
"""

from __future__ import annotations

import numpy as np

from repro.dba.hw import (
    amortized_line_overhead,
    paper_aggregator,
    paper_disaggregator,
)
from repro.experiments.registry import register, renderer
from repro.interconnect.cxl import CXLLinkModel
from repro.memsim import DRAMModel
from repro.utils.tables import format_table

__all__ = [
    "run_hw_costs",
    "run_dram_overhead",
    "run_overheads",
    "render_overheads",
]


def run_hw_costs() -> list[dict]:
    """Run the experiment; returns one dict per row."""
    rows = []
    wire = CXLLinkModel.paper_default().line_transfer_time()
    for impl in (paper_aggregator(), paper_disaggregator()):
        asic = impl.to_asic()
        rows.append(
            {
                "unit": impl.name,
                "power_w": asic.power_w,
                "latency_ns": asic.latency_s * 1e9,
                "area_mm2": asic.area_mm2,
                "pipelined_overhead_ns": amortized_line_overhead(
                    asic.latency_s, wire
                )
                * 1e9,
            }
        )
    return rows


def run_dram_overhead(
    n_lines: int = 1 << 15, seed: int = 0
) -> dict[str, float]:
    """Replay parameter-line update streams with and without the extra
    Disaggregator read, sequential and shuffled."""
    if n_lines <= 0:
        raise ValueError("n_lines must be positive")
    rng = np.random.default_rng(seed)
    seq = np.arange(n_lines, dtype=np.int64) * 64
    shuf = rng.permutation(seq)
    out: dict[str, float] = {}
    for label, addrs in (("sequential", seq), ("shuffled", shuf)):
        base = DRAMModel().replay_rw(
            addrs, np.zeros(addrs.size, dtype=bool)
        )  # write-only stream
        rw_addrs = np.repeat(addrs, 2)  # merge read + merged-line write
        rw_ops = np.tile(np.array([True, False]), addrs.size)
        with_read = DRAMModel().replay_rw(rw_addrs, rw_ops)
        out[label] = with_read / base
    return out


@register(
    "overheads",
    "Sec VIII-D — hardware overheads",
    tags=("table", "hardware"),
)
def run_overheads(n_lines: int = 1 << 15, seed: int = 0) -> list[dict]:
    """One row per unit (``kind="unit"``) plus the DRAM inflation row
    (``kind="dram"``)."""
    rows = [{"kind": "unit", **r} for r in run_hw_costs()]
    rows.append({"kind": "dram", **run_dram_overhead(n_lines, seed)})
    return rows


@renderer("overheads")
def render_overheads(rows: list[dict]) -> str:
    """Render the rows of :func:`run_overheads` as one text block."""
    dram = next(r for r in rows if r["kind"] == "dram")
    table = format_table(
        ["unit", "power (W)", "latency (ns)", "pipelined overhead (ns)"],
        [
            (
                r["unit"],
                f"{r['power_w']:.4f}",
                f"{r['latency_ns']:.3f}",
                f"{r['pipelined_overhead_ns']:.2f}",
            )
            for r in rows
            if r["kind"] == "unit"
        ],
        title="Section VIII-D — DBA hardware overheads",
    )
    return (
        table
        + "\nDRAM cycle inflation from the extra merge read: "
        + f"sequential {dram['sequential']:.2f}x (paper 2.48x), "
        + f"shuffled {dram['shuffled']:.2f}x (paper 1.9x)"
    )
