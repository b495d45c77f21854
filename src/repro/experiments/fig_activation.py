"""Extension experiment — group-prefetch activation offloading sweep.

Sweeps the :class:`~repro.offload.group_offload.GroupOffloadPolicy`
space on one Table III model: how much of the activation footprint
spills to CXL (``offload fraction``) x how many groups the backward
pass prefetches ahead (``prefetch``).  Each row reports the step time,
the two activation overlap components
(``act_evict_exposed`` / ``act_fetch_exposed``), the activation traffic,
the GPU bytes freed, and the speedup over the *on-demand* configuration
(``prefetch = 0``) at the same offload fraction — the group-prefetch
win the NeMo ``GroupOffloadHandler`` pattern exists to capture.

Prefetching strictly helps (or ties): a prefetched group's fetch is on
the wire while the previous group's backward computes, so its stall can
only shrink.  ``make exp-smoke`` gates ``speedup > 1`` at full offload.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload.group_offload import (
    ActivationOffloadEngine,
    GroupOffloadPolicy,
)
from repro.utils.tables import format_table
from repro.utils.units import GB

__all__ = ["run_fig_activation", "render_fig_activation"]


@register(
    "fig_activation",
    "Extension — group-prefetch activation offloading (fraction x prefetch)",
    tags=("extension", "offload", "timing"),
)
def run_fig_activation(
    model: str = "bert-large-cased",
    batch: int = 4,
    group_size: int = 2,
    fractions: tuple[float, ...] = (0.0, 0.5, 1.0),
    prefetches: tuple[int, ...] = (0, 1, 2),
    dba: bool = False,
) -> list[dict]:
    """Run the sweep; one row per (offload fraction, prefetch) cell."""
    spec = get_model(model)
    rows = []
    for fraction in fractions:
        baseline = None
        for prefetch in prefetches:
            policy = GroupOffloadPolicy.from_fraction(
                spec.n_layers,
                fraction,
                group_size=group_size,
                prefetch_groups=prefetch,
            )
            result = ActivationOffloadEngine(
                spec,
                batch,
                policy=policy,
                dba=dba,
            ).simulate_step()
            if baseline is None:
                baseline = result  # prefetches[0] is the reference
            rows.append(
                {
                    "model": spec.name,
                    "batch": batch,
                    "offload_fraction": fraction,
                    "group_size": group_size,
                    "prefetch": prefetch,
                    "step": result.total,
                    "evict_exposed": result.breakdown.act_evict_exposed,
                    "fetch_exposed": result.breakdown.act_fetch_exposed,
                    "act_gb": result.act_bytes / GB,
                    "act_wire_gb": result.act_wire_bytes / GB,
                    "freed_gb": result.freed_bytes / GB,
                    "offloaded_layers": result.offloaded_layers,
                    "speedup_vs_on_demand": baseline.total / result.total,
                }
            )
            if fraction == 0.0:
                break  # nothing spills: prefetch is a no-op
    return rows


@renderer("fig_activation")
def render_fig_activation(rows: list[dict]) -> str:
    """Render the sweep as a plain-text table."""
    return format_table(
        [
            "offload",
            "prefetch",
            "step",
            "evict exp",
            "fetch exp",
            "freed GB",
            "speedup",
        ],
        [
            (
                f"{r['offload_fraction']:.0%}",
                r["prefetch"],
                f"{r['step'] * 1e3:.1f} ms",
                f"{r['evict_exposed'] * 1e3:.1f} ms",
                f"{r['fetch_exposed'] * 1e3:.1f} ms",
                f"{r['freed_gb']:.2f}",
                f"{r['speedup_vs_on_demand']:.2f}x",
            )
            for r in rows
        ],
        title=(
            "Extension — group-prefetch activation offload "
            f"({rows[0]['model'] if rows else '?'}, "
            f"batch {rows[0]['batch'] if rows else '?'})"
        ),
    )
