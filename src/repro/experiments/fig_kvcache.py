"""Extension experiment — KV-cache inference with CXL spill.

Sweeps :class:`~repro.offload.kvcache.KVCacheEngine` over hot-tier
residency: each cell decodes ``decode_tokens`` autoregressive steps with
the most recent ``residency x final_context`` positions' KV pairs in
HBM and the cold remainder streaming in from CXL every step.

The headline curve is tokens/s vs residency: throughput degrades
monotonically as residency shrinks, because every lost resident token
adds per-step fetch bytes while the decode compute stays fixed.
``make exp-smoke`` gates the monotonicity end-to-end.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer
from repro.models import get_model
from repro.offload.kvcache import KVCacheEngine, kv_bytes_per_token
from repro.utils.tables import format_table
from repro.utils.units import GB

__all__ = ["run_fig_kvcache", "render_fig_kvcache"]


@register(
    "fig_kvcache",
    "Extension — KV-cache decode with CXL spill (tokens/s vs residency)",
    tags=("extension", "offload", "inference", "timing"),
)
def run_fig_kvcache(
    model: str = "bert-large-cased",
    prompt_tokens: int = 512,
    decode_tokens: int = 128,
    residencies: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    profile=None,
) -> list[dict]:
    """Run the sweep; one row per residency cell."""
    spec = get_model(model)
    rows = []
    reference = None
    for residency in sorted(residencies, reverse=True):
        result = KVCacheEngine.from_residency(
            spec,
            residency,
            prompt_tokens=prompt_tokens,
            decode_tokens=decode_tokens,
            tracer=None if profile is None else profile.tracer,
            metrics=None if profile is None else profile.metrics,
        ).simulate_decode()
        if reference is None:
            reference = result  # highest residency = fastest cell
        rows.append(
            {
                "model": spec.name,
                "prompt_tokens": prompt_tokens,
                "decode_tokens": decode_tokens,
                "residency": residency,
                "hbm_tokens": result.hbm_tokens,
                "kv_token_kb": kv_bytes_per_token(spec) / 1024.0,
                "tokens_per_s": result.tokens_per_s,
                "total_time": result.total_time,
                "compute_time": result.compute_time,
                "fetch_exposed": result.fetch_exposed,
                "evict_exposed": result.evict_exposed,
                "fetched_gb": result.fetched_gb,
                "evicted_gb": result.evicted_gb,
                "slowdown_vs_resident": (
                    result.total_time / reference.total_time
                ),
            }
        )
    return rows


@renderer("fig_kvcache")
def render_fig_kvcache(rows: list[dict]) -> str:
    """Render the sweep as a plain-text table."""
    return format_table(
        [
            "residency",
            "HBM tokens",
            "tokens/s",
            "fetch exp",
            "fetched GB",
            "slowdown",
        ],
        [
            (
                f"{r['residency']:.0%}",
                r["hbm_tokens"],
                f"{r['tokens_per_s']:.1f}",
                f"{r['fetch_exposed'] * 1e3:.1f} ms",
                f"{r['fetched_gb']:.3f}",
                f"{r['slowdown_vs_resident']:.2f}x",
            )
            for r in rows
        ],
        title=(
            "Extension — CXL-spilled KV-cache decode "
            f"({rows[0]['model'] if rows else '?'}, "
            f"{rows[0]['prompt_tokens'] if rows else '?'}+"
            f"{rows[0]['decode_tokens'] if rows else '?'} tokens)"
        ),
    )
