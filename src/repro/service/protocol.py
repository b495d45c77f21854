"""Wire schema of the sweep service: request parsing and validation.

``POST /jobs`` accepts two equivalent sweep-spec shapes:

* **explicit cells** — ``{"cells": [{"experiment": "table6",
  "params": {"batch": 2}, "seed": 0}, ...]}``: the caller enumerates
  every cell, exactly as :func:`repro.experiments.executor.run_sweep`
  takes them;
* **axes** — ``{"experiment": "table6", "sweep": {"batch": [2, 4]},
  "seeds": [0, 1]}``: the service takes the cross-product of the swept
  axes times the seed list, the same grid the ``repro sweep`` CLI
  builds.  Non-list ``sweep`` values are single-valued axes.

Optional keys on either shape: ``base_seed`` (int, for cells without an
explicit seed), ``no_cache`` (bool, bypass the shared result cache) and
``profile`` (bool, record per-cell Chrome traces served at
``GET /jobs/<id>/trace``).

Every experiment name and parameter is validated against the registry
*at submit time*, so a bad request is a synchronous ``400`` — not a
failed cell discovered by polling.
"""

from __future__ import annotations

from repro.experiments import registry
from repro.experiments.executor import SweepCell, grid_cells

__all__ = ["SpecError", "parse_sweep_spec", "JobOptions"]


class SpecError(ValueError):
    """A malformed or unknown-experiment sweep spec (HTTP 400)."""


class JobOptions:
    """Per-job options parsed alongside the cells."""

    def __init__(self, base_seed: int = 0, no_cache: bool = False,
                 profile: bool = False):
        self.base_seed = base_seed
        self.no_cache = no_cache
        self.profile = profile


def _validate_cell(experiment: str, params: dict) -> None:
    """Check the experiment exists and the params are in its schema."""
    try:
        spec = registry.get_spec(experiment)
    except KeyError as exc:
        raise SpecError(str(exc)) from None
    try:
        spec.resolve_params(params)
    except KeyError as exc:
        raise SpecError(str(exc)) from None


def _cells_from_list(raw_cells) -> list[SweepCell]:
    if not isinstance(raw_cells, list) or not raw_cells:
        raise SpecError("'cells' must be a non-empty array")
    cells = []
    for i, raw in enumerate(raw_cells):
        if not isinstance(raw, dict) or "experiment" not in raw:
            raise SpecError(f"cells[{i}] needs an 'experiment' key")
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise SpecError(f"cells[{i}].params must be an object")
        seed = raw.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise SpecError(f"cells[{i}].seed must be an integer or null")
        _validate_cell(raw["experiment"], params)
        cells.append(SweepCell.make(raw["experiment"], params, seed=seed))
    return cells


def _cells_from_axes(payload: dict) -> list[SweepCell]:
    experiment = payload["experiment"]
    sweep = payload.get("sweep") or {}
    if not isinstance(sweep, dict):
        raise SpecError("'sweep' must be an object of param -> value(s)")
    _validate_cell(experiment, sweep)
    seeds = payload.get("seeds", [0])
    if not isinstance(seeds, list) or not all(
        isinstance(s, int) for s in seeds
    ):
        raise SpecError("'seeds' must be an array of integers")
    return grid_cells(registry.get_spec(experiment), sweep, seeds)


def parse_sweep_spec(payload) -> tuple[list[SweepCell], JobOptions]:
    """Parse a ``POST /jobs`` body into validated cells + options.

    Raises :class:`SpecError` on anything malformed; the daemon maps
    that to a 400 response carrying the message.
    """
    if not isinstance(payload, dict):
        raise SpecError("request body must be a JSON object")
    if "cells" in payload:
        cells = _cells_from_list(payload["cells"])
    elif "experiment" in payload:
        cells = _cells_from_axes(payload)
    else:
        raise SpecError(
            "spec needs either 'cells' (explicit cell list) or "
            "'experiment' (+ optional 'sweep'/'seeds' axes)"
        )
    base_seed = payload.get("base_seed", 0)
    if not isinstance(base_seed, int):
        raise SpecError("'base_seed' must be an integer")
    options = JobOptions(
        base_seed=base_seed,
        no_cache=bool(payload.get("no_cache", False)),
        profile=bool(payload.get("profile", False)),
    )
    return cells, options
