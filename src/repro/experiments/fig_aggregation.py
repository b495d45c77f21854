"""Extension experiment — in-fabric gradient aggregation Pareto sweep.

NEURON-Fabric-style CXL-side reduction (PAPERS.md): every data-parallel
rank streams its gradient — encoded in a low-bit wire format — into a
:class:`~repro.interconnect.aggregation.FabricReducer` inside the CXL
fabric, and a single reduced stream crosses the memory-pool boundary.
This sweep maps the resulting accuracy-vs-wire-bytes Pareto:

* **Timing** (format x ranks x policy): a multi-tenant
  :class:`~repro.offload.cluster.ClusterEngine` step with
  ``reduce_in_fabric`` on, against the same cell's ring-allreduce
  baseline — wire bytes fall with the format's width, step time falls
  with them.
* **Accuracy** (per format): the finetune proxy trains with the format's
  *real* encode→decode round-trip injected into its gradients
  (:func:`~repro.interconnect.aggregation.wire_roundtrip` through the
  trainer's ``grad_transform`` hook), so perplexity deltas reflect
  genuine FP16/BF16/FP8/INT8 rounding, not idealized byte counts.

Expected shape: wire bytes order FP32 > FP16/BF16 > FP8/INT8-DBA while
proxy perplexity degrades only mildly down the ladder — the knee of the
Pareto sits at the 8-bit formats (pinned group-wise in
``benchmarks/exp_smoke.py``).

The timing cells and the per-format fine-tunes are independent, so each
kind runs as one :func:`~repro.experiments.executor.map_tasks` batch.
"""

from __future__ import annotations

import functools

from repro.experiments.executor import map_tasks
from repro.experiments.registry import register, renderer
from repro.experiments.runner import finetune, pretrained_lm
from repro.interconnect.aggregation import WireFormat, wire_roundtrip
from repro.models import get_model
from repro.offload import SystemKind, TrainerMode
from repro.offload.cluster import ClusterEngine
from repro.offload.parallel import ClusterParams
from repro.utils.tables import format_table
from repro.utils.units import GB

__all__ = ["run_fig_aggregation", "render_fig_aggregation"]

DEFAULT_FORMATS = ("fp32", "fp16", "bf16", "fp8-e4m3", "int8-dba")


def _simulate_cell(
    spec,
    kind: SystemKind,
    ranks: int,
    micro_batch: int,
    n_tenants: int,
    policy: str,
    fmt: str | None,
):
    """One cluster step: ``fmt=None`` is the ring-allreduce baseline."""
    engine = ClusterEngine(
        kind,
        spec,
        micro_batch * ranks,
        ClusterParams(n_gpus=ranks),
        n_hosts=ranks,
        n_tenants=n_tenants,
        policy=policy,
        reduce_in_fabric=fmt is not None,
        grad_wire_format=fmt or "fp32",
    )
    return engine.simulate_step()


def _finetune_perplexity(setup, fmt: str | None, seed: int) -> float:
    """Proxy perplexity after fine-tuning with ``fmt``'s wire round-trip
    on every gradient (``None``: the unrounded baseline)."""
    transform = (
        None if fmt is None else functools.partial(wire_roundtrip, fmt=fmt)
    )
    tr = finetune(
        setup,
        TrainerMode.TECO_REDUCTION,
        seed=seed + 1,
        grad_transform=transform,
    )
    return tr.model.perplexity(setup.eval_batch)


@register(
    "fig_aggregation",
    "Extension — in-fabric aggregation Pareto (format x ranks x policy)",
    tags=("extension", "fabric", "timing", "functional"),
)
def run_fig_aggregation(
    model: str = "bert-large-cased",
    system: str = "teco-reduction",
    micro_batch: int = 2,
    n_tenants: int = 2,
    formats: tuple[str, ...] = DEFAULT_FORMATS,
    ranks: tuple[int, ...] = (2, 4, 8),
    policies: tuple[str, ...] = ("fair", "shared"),
    n_steps: int = 80,
    seed: int = 0,
) -> list[dict]:
    """Run the sweep; one dict per (format, ranks, policy) cell.

    Each cell carries the in-fabric timing plus the format's (rank- and
    policy-independent) finetune-proxy accuracy, so every row is a point
    on the accuracy-vs-wire-bytes Pareto.
    """
    spec = get_model(model)
    kind = SystemKind(system)
    formats = tuple(WireFormat.parse(f).value for f in formats)
    # The fp32 round-trip is the bitwise identity: its run is the baseline.
    fp32 = WireFormat.FP32.value
    tuned = [None] + list(dict.fromkeys(f for f in formats if f != fp32))
    cells = [
        (r, policy, fmt)
        for r in ranks
        for policy in policies
        for fmt in (None, *formats)
    ]
    timings = map_tasks(
        _simulate_cell,
        [(spec, kind, r, micro_batch, n_tenants, p, f) for r, p, f in cells],
    )
    cell_of = dict(zip(cells, timings))
    setup = pretrained_lm(seed=seed, finetune_batches=n_steps)
    perplexities = map_tasks(
        _finetune_perplexity, [(setup, fmt, seed) for fmt in tuned]
    )
    ppl = dict(zip(tuned, perplexities))
    ppl[fp32] = ppl[None]
    rows = []
    for r in ranks:
        for policy in policies:
            ring = cell_of[r, policy, None]
            for fmt in formats:
                cell = cell_of[r, policy, fmt]
                wire = sum(t.wire_bytes for t in cell.tenants)
                rows.append(
                    {
                        "system": kind.value,
                        "format": fmt,
                        "ranks": r,
                        "tenants": n_tenants,
                        "policy": policy,
                        "makespan": cell.makespan,
                        "mean_step": cell.mean_step,
                        "ring_makespan": ring.makespan,
                        "speedup_vs_ring": ring.makespan / cell.makespan,
                        "wire_gb": wire / GB,
                        "ring_wire_gb": sum(
                            t.wire_bytes for t in ring.tenants
                        )
                        / GB,
                        "reduce_in_gb": cell.reduce_in_bytes / GB,
                        "reduce_out_gb": cell.reduce_out_bytes / GB,
                        "reduce_wait": sum(cell.tenant_reduce_wait),
                        "perplexity": ppl[fmt],
                        "perplexity_delta": ppl[fmt] - ppl[None],
                        "baseline_perplexity": ppl[None],
                    }
                )
    return rows


@renderer("fig_aggregation")
def render_fig_aggregation(rows: list[dict]) -> str:
    """Render the sweep as a plain-text table."""
    return format_table(
        [
            "format",
            "ranks",
            "policy",
            "makespan",
            "vs ring",
            "wire GB",
            "reduce in/out GB",
            "proxy ppl",
            "delta",
        ],
        [
            (
                r["format"],
                r["ranks"],
                r["policy"],
                f"{r['makespan'] * 1e3:.1f} ms",
                f"{r['speedup_vs_ring']:.2f}x",
                f"{r['wire_gb']:.2f}",
                f"{r['reduce_in_gb']:.2f}/{r['reduce_out_gb']:.2f}",
                f"{r['perplexity']:.3f}",
                f"{r['perplexity_delta']:+.3f}",
            )
            for r in rows
        ],
        title=(
            "Extension — in-fabric aggregation: accuracy vs wire bytes "
            f"({rows[0]['system'] if rows else '?'})"
        ),
    )
