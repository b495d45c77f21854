"""Parallel sweep executor: fan independent experiment cells across workers.

A sweep is a list of :class:`SweepCell` — ``(experiment name, params,
seed)`` triples.  :func:`run_sweep` executes them either inline
(``jobs=1``) or across a ``ProcessPoolExecutor``, with:

* **deterministic per-cell seeding** — a cell without an explicit seed
  gets one derived from the sweep's base seed and the cell's content
  hash, so ``--jobs 1`` and ``--jobs 8`` produce bit-identical
  :class:`~repro.experiments.registry.ExperimentResult` hashes;
* **shared content-addressed caching** — workers read/write one
  :class:`~repro.experiments.cache.ResultCache` directory (atomic
  writes), so a killed sweep resumes with only its dirty cells;
* **merged obs traces** — with ``profile_dir`` each cell runs under a
  fresh :class:`repro.obs.Profile`; per-cell Chrome traces are written
  and merged into one ``sweep-trace.json`` with one Chrome process per
  cell.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterable, Mapping
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.registry import (
    ExperimentResult,
    ExperimentSpec,
    RunContext,
    content_hash,
    run_experiment,
)
from repro.obs import Profile
from repro.utils.checks import check_int

__all__ = [
    "SweepCell",
    "grid_cells",
    "CellOutcome",
    "SweepReport",
    "run_sweep",
    "derive_cell_seed",
    "merge_chrome_traces",
]

#: Parallel resubmissions a cell gets after its pool broke before it is
#: retried in isolation (where a crash is attributable to that cell).
_CRASH_ATTEMPTS = 2


@dataclass(frozen=True)
class SweepCell:
    """One (experiment, params, seed) cell of a sweep grid."""

    experiment: str
    params: tuple = ()  # sorted (key, value) pairs; hashable + picklable
    seed: int | None = None

    @classmethod
    def make(cls, experiment, params=None, seed=None) -> "SweepCell":
        """Build a cell from a plain params dict."""
        items = tuple(sorted((params or {}).items()))
        return cls(experiment=experiment, params=items, seed=seed)

    @property
    def params_dict(self) -> dict:
        """The cell's parameter overrides as a plain dict."""
        return dict(self.params)

    def label(self) -> str:
        """Human-readable cell id for traces and summaries."""
        bits = [self.experiment]
        bits += [f"{k}={v}" for k, v in self.params]
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        return " ".join(bits)


def grid_cells(
    spec: ExperimentSpec, axes: Mapping, seeds: Iterable[int]
) -> list[SweepCell]:
    """The cells of ``axes`` (param -> values) crossed with ``seeds``.

    A list value is swept, one cell per element; any other value is a
    single point.  A tuple-typed param takes its (list) value whole, so
    it is never swept.  Seeds vary fastest.
    """
    points = [
        values
        if isinstance(values, list)
        and not isinstance(spec.params.get(key), (tuple, list))
        else [values]
        for key, values in axes.items()
    ]
    seeds = list(seeds)
    return [
        SweepCell.make(spec.name, dict(zip(axes, combo)), seed=seed)
        for combo in itertools.product(*points)
        for seed in seeds
    ]


def derive_cell_seed(base_seed: int, cell: SweepCell) -> int:
    """Deterministic per-cell seed, independent of execution order.

    Derived from the sweep's base seed and the cell's content (name +
    params), never from worker identity or wall clock — the property the
    ``--jobs 1`` vs ``--jobs N`` equivalence test pins down.
    """
    if cell.seed is not None:
        return cell.seed
    digest = content_hash(
        {"base": base_seed, "experiment": cell.experiment, "params": cell.params}
    )
    return base_seed + (int(digest[:8], 16) % 1_000_003)


@dataclass
class CellOutcome:
    """What happened to one cell: its result or its error.

    ``cache_hit``/``cache_miss`` are reported by the worker that ran the
    cell (not inferred after the fact), so every cell is exactly one of
    hit, miss, or failure — the partition the sweep-level stats rely
    on.  A *miss* means the cell was computed, whether the cache was
    enabled, disabled, or absent.
    """

    cell: SweepCell
    seed: int
    result: ExperimentResult | None = None
    error: str | None = None
    cache_hit: bool = False
    cache_miss: bool = False

    @property
    def cached(self) -> bool:
        """Whether the cell was served from the result cache."""
        return bool(self.result is not None and self.result.meta.get("cached"))

    @property
    def seconds(self) -> float:
        """Cell runtime in seconds (0.0 when the cell failed)."""
        if self.result is None:
            return 0.0
        return float(self.result.meta.get("seconds", 0.0))


@dataclass
class SweepReport:
    """All cell outcomes plus sweep-level accounting."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1
    trace_path: str | None = None

    @property
    def computed(self) -> int:
        """Number of cells actually executed this sweep."""
        return sum(1 for o in self.outcomes if o.result and not o.cached)

    @property
    def cached(self) -> int:
        """Number of cells served from the result cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def failed(self) -> int:
        """Number of cells that raised instead of returning rows."""
        return sum(1 for o in self.outcomes if o.error is not None)

    @property
    def cache_hits(self) -> int:
        """Cells served from cache, as reported by the workers."""
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Cells computed (cache miss or no/disabled cache)."""
        return sum(1 for o in self.outcomes if o.cache_miss)

    @property
    def sweep_hash(self) -> str:
        """Order-independent hash over every cell's result hash."""
        return content_hash(
            sorted(
                o.result.result_hash for o in self.outcomes if o.result
            )
        )

    def summary(self) -> str:
        """Plain-text per-cell roll-up."""
        from repro.utils.tables import format_table

        rows = []
        for o in self.outcomes:
            status = (
                "error" if o.error else ("cached" if o.cached else "computed")
            )
            rows.append(
                (
                    o.cell.label(),
                    status,
                    f"{o.seconds:.2f}s",
                    o.result.result_hash[:12] if o.result else "-",
                )
            )
        table = format_table(
            ["cell", "status", "runtime", "rows hash"],
            rows,
            title=f"sweep — {len(self.outcomes)} cells, jobs={self.jobs}",
        )
        tail = (
            f"\ncomputed {self.computed}, cached {self.cached}, "
            f"failed {self.failed}; wall {self.wall_seconds:.2f}s; "
            f"sweep hash {self.sweep_hash[:12]}"
        )
        return table + tail


def _profile_path(profile_dir, cell: SweepCell, seed: int) -> str:
    stem = content_hash({"cell": cell.params, "x": cell.experiment, "s": seed})
    return os.path.join(
        os.fspath(profile_dir), f"cell-{cell.experiment}-{stem[:10]}.json"
    )


def _run_cell(args) -> tuple[dict | None, str | None, bool, bool]:
    """Top-level worker body (picklable): run one cell, return its result.

    Returns ``(result dict, error, cache_hit, cache_miss)``: exactly one
    of *hit* (served from cache), *miss* (computed — also when the cache
    is disabled or absent), or failure (``error`` set, both flags
    ``False``).  The flags are reported from here, where the lookup
    actually happened, so the parent never has to infer them.  The
    registry repopulates on import inside spawn-style workers.
    """
    (name, params, seed, cache_root, cache_enabled, profile_path) = args
    try:
        from repro.experiments.cache import ResultCache
        from repro.experiments.registry import ensure_registered

        ensure_registered()
        cache = (
            ResultCache(root=cache_root, enabled=cache_enabled)
            if cache_root is not None
            else None
        )
        profile = None if profile_path is None else Profile.new()
        ctx = RunContext(seed=seed, profile=profile)
        result = run_experiment(
            name, params=dict(params), seed=seed, ctx=ctx, cache=cache
        )
        if profile_path is not None:
            os.makedirs(os.path.dirname(profile_path), exist_ok=True)
            profile.write_chrome(profile_path)
        hit = bool(result.meta.get("cached"))
        return result.to_dict(), None, hit, not hit
    except Exception as exc:  # surfaced per-cell, never kills the sweep
        return None, f"{type(exc).__name__}: {exc}", False, False


def _run_cell_isolated(cell_args) -> tuple[dict | None, str | None, bool, bool]:
    """Definitive single-cell attempt in a throwaway one-worker pool.

    With exactly one cell in flight, a broken pool is attributable to
    *this* cell — the only point where "the worker crashed" can be
    pinned on a cell rather than on whoever shared its pool.
    """
    with ProcessPoolExecutor(max_workers=1) as solo:
        try:
            return solo.submit(_run_cell, cell_args).result()
        except BrokenExecutor as exc:
            return (
                None,
                f"worker process crashed ({type(exc).__name__}: the cell "
                "killed its worker — OOM or hard crash)",
                False,
                False,
            )


def _map_cells(args: list, jobs: int) -> list:
    """Run every cell as its own future, surviving worker crashes.

    The sweep owns its pool: one ``ProcessPoolExecutor`` of ``jobs``
    workers, shut down before this returns.  A dead worker breaks the
    whole pool — every pending future raises :class:`BrokenExecutor`,
    including innocent cells that were merely queued behind the crasher.
    Completed futures keep their results, so those cells are never
    re-run.  Broken cells are resubmitted on a fresh pool up to
    ``_CRASH_ATTEMPTS`` times; cells still breaking after that are
    retried once in an isolated one-worker pool where a crash is
    unambiguous and recorded as that cell's error outcome.  The sweep
    itself always completes.
    """
    results: list = [None] * len(args)
    attempts = [0] * len(args)
    pending = list(range(len(args)))
    solo: list[int] = []
    while pending:
        pool = ProcessPoolExecutor(max_workers=jobs)
        retry: list[int] = []
        broke = False
        try:
            futures = []
            for i in pending:
                try:
                    futures.append((i, pool.submit(_run_cell, args[i])))
                except BrokenExecutor:
                    # an earlier cell killed its worker before this one
                    # was submitted: it never ran, so it waits uncharged
                    retry.append(i)
            for i, fut in futures:
                try:
                    results[i] = fut.result()
                except BrokenExecutor:
                    broke = True
                    attempts[i] += 1
                    (retry if attempts[i] < _CRASH_ATTEMPTS else solo).append(i)
        finally:
            pool.shutdown(wait=not broke, cancel_futures=True)
        pending = retry
    for i in solo:
        results[i] = _run_cell_isolated(args[i])
    return results


def merge_chrome_traces(paths, out_path) -> str:
    """Merge per-cell Chrome traces into one file, one process per cell.

    Each input trace's events keep their relative pids, namespaced by the
    cell's file stem so timelines don't collide in the viewer.  The
    merged trace owns process naming: each remapped pid gets exactly one
    synthesized ``process_name`` entry (``"<stem>:<pid>"``), and the
    input traces' own ``process_name`` metadata events are dropped —
    remapped and re-emitted they would land *after* the synthesized
    entry and overwrite it, leaving every cell labelled identically in
    the viewer.  ``thread_name`` metadata is kept (remapped): track
    names are per-pid, so they cannot collide across cells.  Metadata
    comes first, then every event by timestamp, as in each cell's trace.
    """
    merged: list[dict] = []
    pid_map: dict[tuple, int] = {}
    for path in paths:
        stem = Path(path).stem
        try:
            with open(path, encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        for event in trace.get("traceEvents", []):
            if event.get("ph") == "M" and event.get("name") == "process_name":
                continue
            key = (stem, event.get("pid"))
            if key not in pid_map:
                pid_map[key] = len(pid_map) + 1
                merged.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "ts": 0,
                        "pid": pid_map[key],
                        "tid": 0,
                        "args": {"name": f"{stem}:{event.get('pid')}"},
                    }
                )
            event = dict(event)
            event["pid"] = pid_map[key]
            merged.append(event)
    merged.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0)))
    out_path = os.fspath(out_path)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": merged}, fh)
    return out_path


def run_sweep(
    cells,
    jobs: int = 1,
    base_seed: int = 0,
    cache=None,
    profile_dir=None,
) -> SweepReport:
    """Execute a list of cells, optionally in parallel.

    Parameters
    ----------
    cells
        Iterable of :class:`SweepCell` (or ``(name, params_dict)`` /
        ``(name, params_dict, seed)`` tuples, converted for you).
    jobs
        Worker processes, an integer >= 1: ``1`` runs inline in this
        process, more run on a pool this sweep builds and shuts down.
    base_seed
        Seed base for cells without an explicit seed (see
        :func:`derive_cell_seed`).
    cache
        A :class:`~repro.experiments.cache.ResultCache`; workers share
        its directory.  ``None`` disables caching.
    profile_dir
        When set, each cell runs under a fresh profile; per-cell Chrome
        traces land there and are merged into ``sweep-trace.json``.
    """
    import time

    jobs = check_int("jobs", jobs, 1)
    norm: list[SweepCell] = []
    for cell in cells:
        if isinstance(cell, SweepCell):
            norm.append(cell)
        else:
            norm.append(SweepCell.make(*cell))
    seeds = [derive_cell_seed(base_seed, c) for c in norm]
    cache_root = None if cache is None else os.fspath(cache.root)
    cache_enabled = bool(cache is not None and cache.enabled)
    args = [
        (
            c.experiment,
            c.params,
            s,
            cache_root,
            cache_enabled,
            None
            if profile_dir is None
            else _profile_path(profile_dir, c, s),
        )
        for c, s in zip(norm, seeds)
    ]

    t0 = time.perf_counter()
    if jobs == 1:
        raw = [_run_cell(a) for a in args]
    else:
        raw = _map_cells(args, jobs)
    wall = time.perf_counter() - t0

    report = SweepReport(jobs=jobs, wall_seconds=wall)
    for cell, seed, (data, error, hit, miss) in zip(norm, seeds, raw):
        outcome = CellOutcome(
            cell=cell, seed=seed, error=error, cache_hit=hit, cache_miss=miss
        )
        if data is not None:
            result = ExperimentResult.from_dict(data)
            result.meta.setdefault("cached", data["meta"].get("cached", False))
            outcome.result = result
        report.outcomes.append(outcome)
    if cache is not None:
        # The parent's stats reflect the sweep outcome even though the
        # lookups happened in workers — using the workers' own per-cell
        # hit/miss flags, so failed and disabled-cache cells are
        # accounted honestly (hits + misses + failures == cells).
        cache.stats.hits += report.cache_hits
        cache.stats.misses += report.cache_misses
    if profile_dir is not None:
        traces = [a[5] for a in args if a[5] is not None]
        report.trace_path = merge_chrome_traces(
            traces, os.path.join(os.fspath(profile_dir), "sweep-trace.json")
        )
    return report
