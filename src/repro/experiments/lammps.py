"""E-MD — Section VII: TECO generality on the LJ melt (LAMMPS proxy).

Paper: with force offload, transfers take 27% of application time;
applying TECO improves performance 21.5% and DBA cuts communication
volume 17%; CXL contributes 78% of the gain, DBA 22%.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.mdsim import MDOffloadModel, MDOffloadSimulation
from repro.offload import HardwareParams
from repro.utils.tables import format_table

__all__ = ["run_lammps", "render_lammps"]

PAPER = {
    "improvement": 0.215,
    "volume_reduction": 0.17,
    "cxl_share": 0.78,
    "dba_share": 0.22,
}


@register(
    "lammps",
    "Sec VII — LJ melt generality",
    tags=("table", "functional", "md"),
)
def run_lammps(
    n_side: int = 5, n_steps: int = 30, seed: int = 0
) -> list[dict]:
    """Run the melt with DBA, measure volume + byte-change stats, then
    apply the timing model; returns the one result row."""
    sim = MDOffloadSimulation(n_side=n_side, dba=True, dirty_bytes=2, seed=seed)
    sim.run(n_steps)
    volume_reduction = sim.volume_reduction()
    byte_stats = sim.profiler.mean_fractions()
    model = MDOffloadModel(HardwareParams.paper_default())
    perf = model.improvement(volume_reduction)
    row = {
        "n_atoms": sim.n_atoms,
        "volume_reduction": volume_reduction,
        "low_byte_fraction": byte_stats["last_byte"]
        + byte_stats["last_two_bytes"],
        "improvement": perf["improvement"],
        "cxl_share": perf["cxl_share"],
        "dba_share": perf["dba_share"],
        "paper": PAPER,
    }
    return [row]


@renderer("lammps")
def render_lammps(rows: list[dict]) -> str:
    """Render the measured row as a plain-text table."""
    result = rows[0]
    paper = result["paper"]
    table = [
        ("performance improvement", f"{result['improvement']:.1%}", f"{paper['improvement']:.1%}"),
        ("communication volume cut", f"{result['volume_reduction']:.1%}", f"{paper['volume_reduction']:.1%}"),
        ("CXL contribution", f"{result['cxl_share']:.0%}", f"{paper['cxl_share']:.0%}"),
        ("DBA contribution", f"{result['dba_share']:.0%}", f"{paper['dba_share']:.0%}"),
    ]
    return format_table(
        ["quantity", "ours", "paper"],
        table,
        title=f"Section VII — LJ melt with TECO ({result['n_atoms']} atoms)",
    )
