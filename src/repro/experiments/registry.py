"""Typed experiment registry: one schema for every table/figure/ablation.

Every paper experiment registers its public ``run_*`` function through
the :func:`register` decorator, and its ``render_*(rows)`` function
through :func:`renderer`.  A spec names the experiment, carries its
parameter schema (the runner's keyword defaults) and tags; running it
through :func:`run_experiment` fills the runner's :class:`RunContext`
parameters (seed, checkpoint dir), runs it under the context's
:class:`repro.obs.Profile` (if any) and wraps the returned rows in a
canonical :class:`ExperimentResult` (rows + metadata + provenance hash).

The registry is the single source of truth consumed by the CLI
(``python -m repro run/sweep/list``), the parallel sweep executor
(:mod:`repro.experiments.executor`), the content-addressed result cache
(:mod:`repro.experiments.cache`) and the report generator — adding an
experiment here makes it reachable everywhere at once.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "ExperimentSpec",
    "RunContext",
    "ExperimentResult",
    "register",
    "renderer",
    "get_spec",
    "all_specs",
    "spec_names",
    "ensure_registered",
    "run_experiment",
    "canonical_json",
    "content_hash",
    "json_safe",
]

#: name -> spec, in registration (= paper) order.
_REGISTRY: dict[str, ExperimentSpec] = {}

#: Modules whose import populates the registry (the experiment package
#: imports every driver module; see ``repro/experiments/__init__.py``).
_REGISTRY_PACKAGE = "repro.experiments"

#: The ``repro`` package directory whose sources :func:`_package_digest`
#: covers.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def json_safe(value):
    """Recursively convert rows to plain JSON-representable Python.

    numpy scalars become Python ints/floats/bools, arrays become lists,
    tuples become lists — so cached (JSON round-tripped) and fresh rows
    compare equal and hash identically.
    """
    import numpy as np

    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def canonical_json(value) -> str:
    """Deterministic JSON encoding: sorted keys, fixed separators."""
    return json.dumps(json_safe(value), sort_keys=True, separators=(",", ":"))


def content_hash(value) -> str:
    """SHA-256 of the canonical JSON encoding of ``value``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


@dataclass
class RunContext:
    """Per-run services of one :func:`run_experiment` call.

    A runner parameter named ``seed`` or ``checkpoint_dir`` is filled
    from the context and is not part of the spec's schema.

    Parameters
    ----------
    seed
        The run's base seed; runners derive all RNG streams from it.
    checkpoint_dir
        Directory for interruptible-run checkpoints (or ``None``).
    profile
        A live :class:`repro.obs.Profile` (or ``None``), activated
        around the runner: every simulator, trainer and trace replay the
        run builds records into it.
    """

    seed: int = 0
    checkpoint_dir: str | None = None
    profile: Any = None


#: Runner parameters :func:`run_experiment` fills from the context.
_CONTEXT_FIELDS = frozenset({"seed", "checkpoint_dir"})


@dataclass
class ExperimentResult:
    """Canonical result of one experiment run: rows + metadata + hashes."""

    name: str
    params: dict
    seed: int
    rows: list[dict]
    meta: dict = field(default_factory=dict)

    @property
    def provenance(self) -> str:
        """Content hash of what produced the rows: spec name, params,
        seed, and the code version recorded at run time."""
        return content_hash(
            {
                "name": self.name,
                "params": self.params,
                "seed": self.seed,
                "code_version": self.meta.get("code_version"),
            }
        )

    @property
    def result_hash(self) -> str:
        """Content hash of the rows alone (the reproducibility check)."""
        return content_hash(self.rows)

    def to_dict(self) -> dict:
        """JSON-ready encoding, including both hashes."""
        return {
            "name": self.name,
            "params": json_safe(self.params),
            "seed": self.seed,
            "rows": json_safe(self.rows),
            "meta": json_safe(self.meta),
            "provenance": self.provenance,
            "result_hash": self.result_hash,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (hashes are recomputed, not trusted)."""
        return cls(
            name=data["name"],
            params=dict(data["params"]),
            seed=int(data["seed"]),
            rows=list(data["rows"]),
            meta=dict(data.get("meta", {})),
        )


@dataclass
class ExperimentSpec:
    """A registered experiment: schema, tags, runner, and renderer."""

    name: str
    description: str
    runner: Callable[..., list[dict]]
    params: dict[str, Any]
    tags: tuple[str, ...] = ()
    module: str = ""
    render: Callable[[list[dict]], str] | None = None

    def resolve_params(self, overrides: Mapping[str, Any] | None) -> dict:
        """Defaults merged with ``overrides``; unknown keys are an error."""
        params = dict(self.params)
        for key, value in (overrides or {}).items():
            if key not in params:
                raise KeyError(
                    f"experiment {self.name!r} has no parameter {key!r} "
                    f"(available: {sorted(params)})"
                )
            params[key] = value
        return params

    def coerce_param(self, key: str, text: str):
        """Parse a CLI ``key=value`` string against the default's type."""
        if key not in self.params:
            raise KeyError(
                f"experiment {self.name!r} has no parameter {key!r} "
                f"(available: {sorted(self.params)})"
            )
        default = self.params[key]
        if isinstance(default, bool):
            return text.lower() in ("1", "true", "yes", "on")
        if isinstance(default, int) and not isinstance(default, bool):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, (tuple, list)):
            elem = default[0] if default else 0
            if isinstance(elem, str):
                cast = str
            elif isinstance(elem, float):
                cast = float
            else:
                cast = int
            return [cast(v) for v in text.split(",") if v != ""]
        return text

    def code_version(self) -> str:
        """Hash of the whole ``repro`` source tree (plus the defining
        module when it lives outside the package, e.g. a test module).

        The result cache keys on this, so an edit to any library module
        an experiment runs through — not just its own module — invalidates
        its cached rows.
        """
        version = _package_digest()
        if self.module.partition(".")[0] != "repro":
            path = getattr(sys.modules.get(self.module), "__file__", None)
            if path:
                version = hashlib.sha256(
                    version.encode() + Path(path).read_bytes()
                ).hexdigest()
        return version[:16]


@functools.cache
def _package_digest() -> str:
    """SHA-256 over every ``repro/**/*.py`` (sorted relative path, then
    bytes), computed once per process."""
    digest = hashlib.sha256()
    for rel in sorted(
        p.relative_to(_PACKAGE_ROOT).as_posix()
        for p in _PACKAGE_ROOT.rglob("*.py")
    ):
        data = (_PACKAGE_ROOT / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def register(
    name: str, description: str, tags: tuple[str, ...] = ()
) -> Callable:
    """Decorator: register ``fn(**params)`` as experiment ``name``.

    The parameter schema is read from the runner's signature: every
    parameter not named after a :class:`RunContext` field must have a
    default, which becomes the spec's default params.
    """

    def deco(fn: Callable) -> Callable:
        params: dict[str, Any] = {}
        for p in inspect.signature(fn).parameters.values():
            if p.name in _CONTEXT_FIELDS:
                continue
            if p.default is inspect.Parameter.empty:
                raise TypeError(
                    f"experiment parameter {p.name!r} of {name!r} needs a "
                    "default value (it is the spec's schema)"
                )
            params[p.name] = json_safe(p.default)
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            description=description,
            runner=fn,
            params=params,
            tags=tuple(tags),
            module=fn.__module__,
        )
        return fn

    return deco


def renderer(name: str) -> Callable:
    """Decorator: attach ``fn(rows) -> str`` as ``name``'s renderer."""

    def deco(fn: Callable) -> Callable:
        spec = _REGISTRY.get(name)
        if spec is None:
            raise KeyError(
                f"cannot attach renderer: experiment {name!r} is not "
                "registered (register the runner first)"
            )
        spec.render = fn
        return fn

    return deco


def ensure_registered() -> None:
    """Populate the registry by importing the experiments package."""
    import importlib

    importlib.import_module(_REGISTRY_PACKAGE)


def get_spec(name: str) -> ExperimentSpec:
    """Look up a spec by name (after :func:`ensure_registered`)."""
    if name not in _REGISTRY:
        ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, in registration (= paper) order."""
    if not _REGISTRY:
        ensure_registered()
    return list(_REGISTRY.values())


def spec_names() -> list[str]:
    """Registered experiment names, in registration order."""
    return [s.name for s in all_specs()]


def run_experiment(
    name: str,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
    ctx: RunContext | None = None,
    cache=None,
) -> ExperimentResult:
    """Run an experiment through the registry.

    Parameters
    ----------
    name
        Registered experiment name.
    params
        Overrides merged over the spec's defaults.
    seed
        Base seed recorded in the result and handed to the runner via
        the context.
    ctx
        Optional pre-built :class:`RunContext` (for a profile or a
        checkpoint dir); its seed is set to ``seed`` so result
        provenance and the context can never disagree.  Runner
        parameters named ``seed``/``checkpoint_dir`` are filled from it;
        its profile is active while the runner runs.  A parameter whose
        default is a tuple receives its value as a tuple.
    cache
        A :class:`repro.experiments.cache.ResultCache` (or ``None`` to
        always compute).  On a hit the cached rows are returned without
        running anything; on a miss the fresh result is stored.
    """
    spec = get_spec(name)
    resolved = json_safe(spec.resolve_params(params))
    code_version = spec.code_version()
    if cache is not None:
        hit = cache.get(name, resolved, seed, code_version)
        if hit is not None:
            return hit
    run_ctx = ctx or RunContext()
    run_ctx.seed = seed
    signature = inspect.signature(spec.runner).parameters
    kwargs = {
        key: tuple(v) if isinstance(signature[key].default, tuple) else v
        for key, v in resolved.items()
    }
    for key in _CONTEXT_FIELDS & signature.keys():
        kwargs[key] = getattr(run_ctx, key)
    t0 = time.perf_counter()
    if run_ctx.profile is None:
        rows = spec.runner(**kwargs)
    else:
        with run_ctx.profile.activate():
            rows = spec.runner(**kwargs)
    seconds = time.perf_counter() - t0
    result = ExperimentResult(
        name=name,
        params=resolved,
        seed=seed,
        rows=json_safe(rows),
        meta={
            "code_version": code_version,
            "seconds": seconds,
            "cached": False,
        },
    )
    if cache is not None:
        cache.put(result)
    return result


def render_result(result: ExperimentResult) -> str:
    """Render a result with its spec's renderer (fallback: raw rows)."""
    spec = get_spec(result.name)
    if spec.render is not None:
        return spec.render(result.rows)
    return json.dumps(json_safe(result.rows), indent=2)
