"""Extension experiment — multi-host CXL memory-pool fabric sweeps.

The paper's single-host evaluation leaves its own motivating regime
(Section II-A: cluster-scale data parallelism) unmeasured.  This sweep
puts ``M`` concurrent training jobs on ``N`` trainer nodes sharing one
switched CXL memory pool (:class:`repro.offload.cluster.ClusterEngine`
over :class:`repro.interconnect.fabric.CXLFabric`) and measures how step
time degrades with tenancy under each pool-partitioning policy:

* ``fair`` — static 1/M bandwidth isolation;
* ``weighted`` — QoS split proportional to tenant weight ``1 + t``
  (tenant 0 is the low-priority job);
* ``shared`` — one FCFS pool, no isolation.

Each row is one (nodes, tenants, policy) cell: mean/makespan step time,
slowdown against the single-tenant cell of the same node count, and the
fabric contention breakdown (switch vs pool queueing seconds, per-tenant
traffic).  Slowdown is monotone non-decreasing in tenants — pinned by
``tests/test_fabric.py``.

With one tenant every policy gives that tenant the whole pool, so the
single-tenant reference is simulated once per node count and shared by
the policies (``tests/test_fabric.py`` pins the identity).  The cells
are independent simulations, run with
:func:`~repro.experiments.executor.map_tasks`.
"""

from __future__ import annotations

from repro.experiments.executor import map_tasks
from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload import SystemKind
from repro.offload.cluster import ClusterEngine
from repro.offload.parallel import ClusterParams
from repro.utils.tables import format_table
from repro.utils.units import GB

__all__ = ["run_fig_fabric", "render_fig_fabric"]


def _simulate_cell(
    spec,
    system: SystemKind,
    global_batch: int,
    gpus_per_job: int,
    nodes: int,
    n_tenants: int,
    policy: str,
):
    weights = (
        tuple(1.0 + t for t in range(n_tenants))
        if policy == "weighted"
        else None
    )
    engine = ClusterEngine(
        system,
        spec,
        global_batch,
        ClusterParams(n_gpus=gpus_per_job),
        n_hosts=nodes,
        n_tenants=n_tenants,
        policy=policy,
        tenant_weights=weights,
    )
    return engine.simulate_step()


@register(
    "fig_fabric",
    "Extension — multi-host CXL fabric (nodes x tenants x policy)",
    tags=("extension", "fabric", "timing"),
)
def run_fig_fabric(
    model: str = "bert-large-cased",
    system: str = "teco-reduction",
    global_batch: int = 4,
    gpus_per_job: int = 1,
    nodes: tuple[int, ...] = (1, 2, 4),
    tenants: tuple[int, ...] = (1, 2, 4, 8),
    policies: tuple[str, ...] = ("fair", "weighted", "shared"),
) -> list[dict]:
    """Run the sweep; returns one dict per (nodes, tenants, policy) cell."""
    spec = get_model(model)
    kind = SystemKind(system)
    shape = (spec, kind, global_batch, gpus_per_job)
    # One tenant owns the whole pool under every policy, so one
    # single-tenant reference per node count serves all the policies.
    keys = [(n, 1, policies[0]) for n in nodes if policies] + [
        (n, m, p) for n in nodes for p in policies for m in tenants if m != 1
    ]
    cell_of = dict(
        zip(keys, map_tasks(_simulate_cell, [(*shape, *k) for k in keys]))
    )
    rows = []
    for n in nodes:
        for policy in policies:
            ref = cell_of[n, 1, policies[0]]
            for m in tenants:
                cell = ref if m == 1 else cell_of[n, m, policy]
                rows.append(
                    {
                        "system": kind.value,
                        "nodes": n,
                        "tenants": m,
                        "policy": policy,
                        "mean_step": cell.mean_step,
                        "makespan": cell.makespan,
                        "slowdown": cell.mean_step / ref.mean_step,
                        "switch_wait": cell.switch_wait,
                        "pool_wait": cell.pool_wait,
                        "fabric_gb": cell.fabric_bytes / GB,
                        "tenant_gb": [b / GB for b in cell.tenant_bytes],
                        "tenant_step": [t.total for t in cell.tenants],
                    }
                )
    return rows


@renderer("fig_fabric")
def render_fig_fabric(rows: list[dict]) -> str:
    """Render the sweep as a plain-text table."""
    return format_table(
        [
            "nodes",
            "tenants",
            "policy",
            "mean step",
            "slowdown",
            "switch wait",
            "pool wait",
            "fabric GB",
        ],
        [
            (
                r["nodes"],
                r["tenants"],
                r["policy"],
                f"{r['mean_step'] * 1e3:.1f} ms",
                f"{r['slowdown']:.2f}x",
                f"{r['switch_wait'] * 1e3:.1f} ms",
                f"{r['pool_wait'] * 1e3:.1f} ms",
                f"{r['fabric_gb']:.2f}",
            )
            for r in rows
        ],
        title=(
            "Extension — multi-host CXL fabric: nodes x tenants x "
            f"partition policy ({rows[0]['system'] if rows else '?'})"
        ),
    )
