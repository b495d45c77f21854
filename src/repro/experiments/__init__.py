"""Experiment drivers: one module per paper table/figure.

Each module exposes a ``run_*`` function returning plain dict rows —
the same rows the paper's tables report — and a ``render_*(rows)`` text
renderer, consumed by the benchmark harness (``benchmarks/``) and the
examples.  Both are registered with :mod:`repro.experiments.registry`,
which makes the experiment reachable through ``python -m repro
run/sweep`` with caching and parallel execution.  See DESIGN.md section
3 for the experiment index.

Modules are imported in paper order: importing this package populates
the registry in the order ``python -m repro list`` shows.
"""

# Imported in paper order — this IS the registry order.
from repro.experiments import table1
from repro.experiments import fig2
from repro.experiments import ablation_invalidation
from repro.experiments import fig10
from repro.experiments import fig11_table4
from repro.experiments import fig12
from repro.experiments import table5
from repro.experiments import table6
from repro.experiments import fig13
from repro.experiments import fig_full
from repro.experiments import table7
from repro.experiments import table8
from repro.experiments import comm_volume
from repro.experiments import overheads
from repro.experiments import lammps
from repro.experiments import ablation_dpu
from repro.experiments import ablation_granularity
from repro.experiments import ablation_interconnect
from repro.experiments import ablation_seqlen
from repro.experiments import scaling
from repro.experiments import fig_fabric
from repro.experiments import fig_aggregation
from repro.experiments import fig_activation
from repro.experiments import fig_zero3
from repro.experiments import fig_kvcache
from repro.experiments import models_table
from repro.experiments import ablation_dirty_bytes
from repro.experiments import cost_model
from repro.experiments import registry
from repro.experiments import cache
from repro.experiments import executor
from repro.experiments import pretrained
from repro.experiments import report

__all__ = [
    "table1",
    "fig2",
    "ablation_invalidation",
    "fig10",
    "fig11_table4",
    "fig12",
    "table5",
    "table6",
    "fig13",
    "fig_full",
    "table7",
    "table8",
    "comm_volume",
    "overheads",
    "lammps",
    "ablation_dpu",
    "ablation_granularity",
    "ablation_interconnect",
    "ablation_seqlen",
    "scaling",
    "fig_fabric",
    "fig_aggregation",
    "fig_activation",
    "fig_zero3",
    "fig_kvcache",
    "models_table",
    "ablation_dirty_bytes",
    "cost_model",
    "registry",
    "cache",
    "executor",
    "pretrained",
    "report",
]
