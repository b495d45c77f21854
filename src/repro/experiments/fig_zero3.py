"""Extension experiment — ZeRO-3 parameter sharding over the CXL fabric.

Sweeps :class:`~repro.offload.zero3.Zero3Engine` over rank counts and
PR 7 wire formats: each cell is one sharded training step whose
parameter gathers ride :class:`~repro.interconnect.gather.FabricGather`,
gradient reductions ride the in-fabric
:class:`~repro.interconnect.aggregation.FabricReducer`, and the
optimizer shards ``1/ranks`` per host.

The headline column is ``per-rank shard GB`` — the sharded wire bytes
one rank sources per step (gather uplinks + its parameter write-back).
ZeRO-3's defining property is that this scales as ``1/ranks``; ``make
exp-smoke`` gates the ratio between adjacent rank counts at ~2x.  Wire
formats compose multiplicatively: fp16 halves every column relative to
fp32 at the same rank count.  The cells are independent simulations,
run with :func:`~repro.experiments.executor.map_tasks`.
"""

from __future__ import annotations

from repro.experiments.executor import map_tasks
from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload.zero3 import Zero3Engine
from repro.utils.tables import format_table
from repro.utils.units import GB

__all__ = ["run_fig_zero3", "render_fig_zero3"]


def _simulate_cell(spec, global_batch, ranks, prefetch_layers, fmt):
    return Zero3Engine(
        spec,
        global_batch,
        ranks=ranks,
        prefetch_layers=prefetch_layers,
        wire_format=fmt,
    ).simulate_step()


@register(
    "fig_zero3",
    "Extension — ZeRO-3 parameter sharding over CXL (ranks x wire format)",
    tags=("extension", "offload", "fabric", "timing"),
)
def run_fig_zero3(
    model: str = "bert-large-cased",
    global_batch: int = 8,
    ranks: tuple[int, ...] = (1, 2, 4, 8),
    formats: tuple[str, ...] = ("fp32", "fp16"),
    prefetch_layers: int = 1,
) -> list[dict]:
    """Run the sweep; one row per (ranks, wire format) cell."""
    spec = get_model(model)
    cells = [(fmt, r) for fmt in formats for r in ranks]
    results = map_tasks(
        _simulate_cell,
        [(spec, global_batch, r, prefetch_layers, fmt) for fmt, r in cells],
    )
    rows = []
    for (_, r), result in zip(cells, results):
        b = result.breakdown
        rows.append(
            {
                "model": spec.name,
                "global_batch": global_batch,
                "ranks": r,
                "format": result.wire_format,
                "prefetch_layers": prefetch_layers,
                "step": result.total,
                "gather_exposed": b.param_gather_exposed,
                "grad_exposed": b.grad_transfer_exposed,
                "gather_wait": result.gather_wait,
                "per_rank_shard_gb": result.per_rank_shard_gb,
                "gather_in_gb": result.gather_in_bytes / GB,
                "gather_out_gb": result.gather_out_bytes / GB,
                "reduce_in_gb": result.reduce_in_bytes / GB,
                "reduce_out_gb": result.reduce_out_bytes / GB,
                "writeback_gb": result.writeback_bytes / GB,
                "fabric_gb": b.wire_bytes / GB,
            }
        )
    return rows


@renderer("fig_zero3")
def render_fig_zero3(rows: list[dict]) -> str:
    """Render the sweep as a plain-text table."""
    return format_table(
        [
            "format",
            "ranks",
            "step",
            "gather exp",
            "shard GB/rank",
            "gather GB",
            "reduce GB",
            "fabric GB",
        ],
        [
            (
                r["format"],
                r["ranks"],
                f"{r['step'] * 1e3:.1f} ms",
                f"{r['gather_exposed'] * 1e3:.1f} ms",
                f"{r['per_rank_shard_gb']:.3f}",
                f"{r['gather_in_gb']:.2f}",
                f"{r['reduce_in_gb']:.2f}",
                f"{r['fabric_gb']:.2f}",
            )
            for r in rows
        ],
        title=(
            "Extension — ZeRO-3 sharding over the CXL fabric "
            f"({rows[0]['model'] if rows else '?'}, global batch "
            f"{rows[0]['global_batch'] if rows else '?'})"
        ),
    )
