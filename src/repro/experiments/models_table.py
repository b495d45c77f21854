"""Table III — the evaluated model zoo, as a registry experiment.

Pure metadata (no simulation): one row per entry of
:data:`repro.models.MODEL_REGISTRY`, matching the paper's Table III
listing of evaluated models.
"""

from __future__ import annotations

from repro.experiments.registry import register, renderer

__all__ = ["run_models_table", "render_models_table"]

COLUMNS = (
    "model",
    "family",
    "params",
    "layers",
    "hidden",
    "heads",
    "giant cache",
)


@register(
    "models",
    "Table III — the evaluated model zoo",
    tags=("table", "metadata"),
)
def run_models_table() -> list[dict]:
    """One dict per model-zoo entry, keyed by the Table III columns."""
    from repro.models import MODEL_REGISTRY

    return [
        dict(zip(COLUMNS, spec.summary_row()))
        for spec in MODEL_REGISTRY.values()
    ]


@renderer("models")
def render_models_table(rows: list[dict]) -> str:
    """Render the rows in the pre-registry CLI format."""
    from repro.utils.tables import format_table

    return format_table(
        list(COLUMNS),
        [tuple(r[c] for c in COLUMNS) for r in rows],
        title="Table III — evaluated models",
    )
