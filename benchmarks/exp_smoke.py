"""Experiment-framework smoke gate: registry, cache, and sweep executor.

Run with::

    PYTHONPATH=src python benchmarks/exp_smoke.py

Checks, in order:

1. **registry** — every legacy CLI experiment name resolves to a spec
   and the registry is non-trivially populated;
2. **cached == fresh** — one cheap experiment computed twice through a
   scratch cache returns byte-identical rows (canonical JSON equality)
   and identical result hashes;
3. **mini-sweep** — a 4-cell ``table6`` grid runs under 2 workers with
   zero failures, then a second pass over the same cache recomputes
   **zero** cells;
4. **fabric** — a reduced ``fig_fabric`` cell (the multi-host CXL
   fabric sweep) is byte-identical cached vs fresh, its contention
   slowdown is monotone in tenants, and a 2-cell fabric sweep produces
   the same sweep hash under ``jobs=1`` and ``jobs=2``;
5. **aggregation** — a reduced ``fig_aggregation`` cell (in-fabric
   reduction with low-bit wire formats) is byte-identical cached vs
   fresh, its wire bytes order FP32 > FP16/BF16 > FP8/INT8-DBA, every
   row reports a finite proxy perplexity, and a 2-cell sweep hashes the
   same under ``jobs=1`` and ``jobs=2``;
6. **activation** — a reduced ``fig_activation`` cell (group-prefetch
   activation offloading) is byte-identical cached vs fresh, prefetching
   strictly beats on-demand fetching at full offload, and a 2-cell sweep
   hashes the same under ``jobs=1`` and ``jobs=2``;
7. **zero3** — a reduced ``fig_zero3`` cell (ZeRO-3 sharding over the
   fabric) is byte-identical cached vs fresh, per-rank shard bytes halve
   between adjacent rank doublings (the 1/ranks law, ranks >= 2), and a
   2-cell sweep hashes the same under ``jobs=1`` and ``jobs=2``;
8. **kvcache** — a reduced ``fig_kvcache`` cell (CXL-spilled KV-cache
   decode) is byte-identical cached vs fresh, tokens/s is strictly
   monotone in residency with zero fetch traffic at residency 1.0, and
   a 2-cell sweep hashes the same under ``jobs=1`` and ``jobs=2``;
9. **fan-out** — reduced ``fig_fabric``, ``fig_aggregation`` and
   ``fig_zero3`` run here, with their independent simulations fanned
   across this host's CPUs by ``map_tasks``, give rows byte-identical
   to the same runs inside a 2-worker ``run_sweep``, where they map
   inline — and no sweep worker starts a pool of its own;
10. **full-size** — the paper-scale ``fig10_full`` (1775 steps) and
   ``fig13_full`` (5-point activation sweep) registry experiments
   complete within ``EXP_SMOKE_FULL_GATE`` seconds (default 480), and
   a reduced ``fig13_full`` hashes identically to ``fig13`` run with
   the same parameters;
11. **speedup** (informational, gated on CPU count) — on hosts with >= 4
   usable CPUs a 4-cell sweep at ``--jobs 4`` must be >= 2x faster than
   ``--jobs 1``; on smaller hosts (this container has 1 CPU) the
   timings are printed but not enforced, since parallel speedup is
   physically impossible there.

Exits non-zero on any violated check, so ``make exp-smoke`` (wired into
``make test``) gates regressions in the framework itself.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import executor, registry  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.executor import SweepCell, run_sweep  # noqa: E402
from repro.experiments.registry import canonical_json  # noqa: E402
from repro.experiments.report import DEFAULT_REPORT_EXPERIMENTS  # noqa: E402

SPEEDUP_MIN_CPUS = 4
SPEEDUP_FLOOR = 2.0


def check_registry() -> None:
    """Every legacy CLI name must resolve through the registry."""
    names = registry.spec_names()
    missing = [n for n in DEFAULT_REPORT_EXPERIMENTS if n not in names]
    assert not missing, f"legacy experiments missing from registry: {missing}"
    assert len(names) >= len(DEFAULT_REPORT_EXPERIMENTS)
    print(f"registry: {len(names)} experiments, all "
          f"{len(DEFAULT_REPORT_EXPERIMENTS)} legacy CLI names covered")


def check_cached_equals_fresh(cache_root: str) -> None:
    """A cache round-trip must reproduce the fresh rows byte-for-byte."""
    cache = ResultCache(root=os.path.join(cache_root, "eq"))
    fresh = registry.run_experiment("table6", cache=cache)
    cached = registry.run_experiment("table6", cache=cache)
    assert cached.meta["cached"], "second run did not hit the cache"
    assert canonical_json(cached.rows) == canonical_json(fresh.rows), (
        "cached rows are not byte-identical to fresh rows"
    )
    assert cached.result_hash == fresh.result_hash
    print(f"cache: cached == fresh for table6 "
          f"(rows hash {fresh.result_hash[:12]})")


def _cells() -> list[SweepCell]:
    return [
        SweepCell.make("table6", {"batch": b}, seed=s)
        for b in (2, 4)
        for s in (0, 1)
    ]


def check_mini_sweep(cache_root: str) -> None:
    """4 cells under 2 workers; the warm second pass recomputes nothing."""
    cache = ResultCache(root=os.path.join(cache_root, "sweep"))
    cold = run_sweep(_cells(), jobs=2, cache=cache)
    assert cold.failed == 0, f"mini-sweep had {cold.failed} failed cells"
    assert cold.computed == len(_cells())
    warm = run_sweep(_cells(), jobs=2, cache=cache)
    assert warm.failed == 0
    assert warm.computed == 0, (
        f"warm sweep recomputed {warm.computed} cells (expected 0)"
    )
    assert warm.sweep_hash == cold.sweep_hash
    print(f"sweep: 4 cells x 2 workers ok; warm pass recomputed 0 "
          f"(sweep hash {cold.sweep_hash[:12]})")


#: Reduced fig_fabric cell: one node count, two tenancy levels, one
#: policy — seconds of wall time, but exercises the whole fabric path.
_FABRIC_PARAMS = {
    "nodes": [1],
    "tenants": [1, 2],
    "policies": ["fair"],
}


def check_fabric(cache_root: str) -> None:
    """fig_fabric: cached == fresh, monotone slowdown, jobs-invariance."""
    cache = ResultCache(root=os.path.join(cache_root, "fabric"))
    fresh = registry.run_experiment("fig_fabric", _FABRIC_PARAMS, cache=cache)
    cached = registry.run_experiment("fig_fabric", _FABRIC_PARAMS, cache=cache)
    assert cached.meta["cached"], "second fig_fabric run did not hit the cache"
    assert canonical_json(cached.rows) == canonical_json(fresh.rows), (
        "cached fig_fabric rows are not byte-identical to fresh rows"
    )
    assert cached.result_hash == fresh.result_hash
    slowdowns = [r["slowdown"] for r in fresh.rows]
    assert slowdowns == sorted(slowdowns) and slowdowns[0] == 1.0, (
        f"fig_fabric slowdown not monotone in tenants: {slowdowns}"
    )
    cells = [
        SweepCell.make("fig_fabric", _FABRIC_PARAMS, seed=s) for s in (0, 1)
    ]
    serial = run_sweep(cells, jobs=1)
    parallel = run_sweep(cells, jobs=2)
    assert serial.failed == 0 and parallel.failed == 0
    assert serial.sweep_hash == parallel.sweep_hash, (
        "fig_fabric sweep hashes disagree between jobs=1 and jobs=2"
    )
    print(f"fabric: fig_fabric cached == fresh, slowdown {slowdowns[-1]:.2f}x "
          f"at 2 tenants, jobs-1 == jobs-2 (hash {serial.sweep_hash[:12]})")


#: Reduced fig_aggregation cell: one rank count, one policy, all five
#: wire formats, and a short finetune — exercises encode/decode, the
#: FabricReducer, and the Pareto accounting end-to-end.
_AGG_PARAMS = {
    "ranks": [2],
    "policies": ["fair"],
    "n_steps": 12,
}


def check_aggregation(cache_root: str) -> None:
    """fig_aggregation: cached == fresh, wire ordering, jobs-invariance."""
    cache = ResultCache(root=os.path.join(cache_root, "aggregation"))
    fresh = registry.run_experiment("fig_aggregation", _AGG_PARAMS, cache=cache)
    cached = registry.run_experiment("fig_aggregation", _AGG_PARAMS, cache=cache)
    assert cached.meta["cached"], (
        "second fig_aggregation run did not hit the cache"
    )
    assert canonical_json(cached.rows) == canonical_json(fresh.rows), (
        "cached fig_aggregation rows are not byte-identical to fresh rows"
    )
    assert cached.result_hash == fresh.result_hash
    wire = {r["format"]: r["wire_gb"] for r in fresh.rows}
    assert (
        wire["fp32"] > wire["fp16"]
        and wire["fp32"] > wire["bf16"]
        and min(wire["fp16"], wire["bf16"]) > wire["fp8-e4m3"]
        and min(wire["fp16"], wire["bf16"]) > wire["int8-dba"]
    ), f"fig_aggregation wire bytes not ordered fp32 > 16-bit > 8-bit: {wire}"
    import math

    assert all(math.isfinite(r["perplexity"]) for r in fresh.rows), (
        "fig_aggregation produced a non-finite proxy perplexity"
    )
    cells = [
        SweepCell.make("fig_aggregation", _AGG_PARAMS, seed=s)
        for s in (0, 1)
    ]
    serial = run_sweep(cells, jobs=1)
    parallel = run_sweep(cells, jobs=2)
    assert serial.failed == 0 and parallel.failed == 0
    assert serial.sweep_hash == parallel.sweep_hash, (
        "fig_aggregation sweep hashes disagree between jobs=1 and jobs=2"
    )
    print(f"aggregation: fig_aggregation cached == fresh, wire order ok "
          f"(fp32 {wire['fp32']:.2f} GB -> int8 {wire['int8-dba']:.2f} GB), "
          f"jobs-1 == jobs-2 (hash {serial.sweep_hash[:12]})")


def _check_cached_and_jobs(name: str, params: dict, cache_root: str):
    """Shared scaffold: cached == fresh bytes + jobs-1 == jobs-2 hashes.

    Returns the fresh result (for the caller's domain assertions) and
    the 2-cell sweep hash.
    """
    cache = ResultCache(root=os.path.join(cache_root, name))
    fresh = registry.run_experiment(name, params, cache=cache)
    cached = registry.run_experiment(name, params, cache=cache)
    assert cached.meta["cached"], f"second {name} run did not hit the cache"
    assert canonical_json(cached.rows) == canonical_json(fresh.rows), (
        f"cached {name} rows are not byte-identical to fresh rows"
    )
    assert cached.result_hash == fresh.result_hash
    cells = [SweepCell.make(name, params, seed=s) for s in (0, 1)]
    serial = run_sweep(cells, jobs=1)
    parallel = run_sweep(cells, jobs=2)
    assert serial.failed == 0 and parallel.failed == 0
    assert serial.sweep_hash == parallel.sweep_hash, (
        f"{name} sweep hashes disagree between jobs=1 and jobs=2"
    )
    return fresh, serial.sweep_hash


#: Reduced fig_activation cell: full offload, on-demand vs 1-deep
#: prefetch — the overlap claim in two rows plus the no-offload floor.
_ACTIVATION_PARAMS = {
    "fractions": [0.0, 1.0],
    "prefetches": [0, 1],
    "group_size": 2,
}


def check_activation(cache_root: str) -> None:
    """fig_activation: cached == fresh, prefetch wins, jobs-invariance."""
    fresh, sweep_hash = _check_cached_and_jobs(
        "fig_activation", _ACTIVATION_PARAMS, cache_root
    )
    by_pf = {
        r["prefetch"]: r
        for r in fresh.rows
        if r["offload_fraction"] == 1.0
    }
    assert by_pf[1]["step"] < by_pf[0]["step"], (
        "prefetch=1 did not beat on-demand at full offload: "
        f"{by_pf[1]['step']} vs {by_pf[0]['step']}"
    )
    assert by_pf[1]["speedup_vs_on_demand"] > 1.0
    assert by_pf[1]["fetch_exposed"] < by_pf[0]["fetch_exposed"]
    none = [r for r in fresh.rows if r["offload_fraction"] == 0.0]
    assert none and none[0]["fetch_exposed"] == 0.0
    print(f"activation: fig_activation cached == fresh, prefetch "
          f"{by_pf[1]['speedup_vs_on_demand']:.2f}x over on-demand, "
          f"jobs-1 == jobs-2 (hash {sweep_hash[:12]})")


#: Reduced fig_zero3 cell: one format, three rank counts on the
#: 1/ranks curve (ranks=1 has no gathers and sits off it by design).
_ZERO3_PARAMS = {
    "ranks": [2, 4, 8],
    "formats": ["fp16"],
}


def check_zero3(cache_root: str) -> None:
    """fig_zero3: cached == fresh, 1/ranks sharding, jobs-invariance."""
    fresh, sweep_hash = _check_cached_and_jobs(
        "fig_zero3", _ZERO3_PARAMS, cache_root
    )
    shard = {r["ranks"]: r["per_rank_shard_gb"] for r in fresh.rows}
    for lo, hi in ((2, 4), (4, 8)):
        ratio = shard[lo] / shard[hi]
        assert abs(ratio - 2.0) < 1e-6, (
            f"per-rank shard bytes not halving {lo}->{hi} ranks: "
            f"ratio {ratio}"
        )
    print(f"zero3: fig_zero3 cached == fresh, shard GB/rank "
          f"{shard[2]:.3f} -> {shard[8]:.3f} (1/ranks), "
          f"jobs-1 == jobs-2 (hash {sweep_hash[:12]})")


#: Reduced fig_kvcache cell: short decode, three residencies spanning
#: fully-resident to half-spilled.
_KVCACHE_PARAMS = {
    "prompt_tokens": 128,
    "decode_tokens": 32,
    "residencies": [0.5, 0.75, 1.0],
}


def check_kvcache(cache_root: str) -> None:
    """fig_kvcache: cached == fresh, monotone tokens/s, jobs-invariance."""
    fresh, sweep_hash = _check_cached_and_jobs(
        "fig_kvcache", _KVCACHE_PARAMS, cache_root
    )
    by_res = sorted(fresh.rows, key=lambda r: r["residency"])
    tok_s = [r["tokens_per_s"] for r in by_res]
    assert all(lo < hi for lo, hi in zip(tok_s, tok_s[1:])), (
        f"tokens/s not strictly monotone in residency: {tok_s}"
    )
    resident = by_res[-1]
    assert resident["residency"] == 1.0
    assert resident["fetched_gb"] == 0.0 and resident["fetch_exposed"] == 0.0
    print(f"kvcache: fig_kvcache cached == fresh, tokens/s "
          f"{tok_s[0]:.0f} -> {tok_s[-1]:.0f} over residency, "
          f"jobs-1 == jobs-2 (hash {sweep_hash[:12]})")


def check_fan_out() -> None:
    """map_tasks fan-out == inline rows; sweep workers start no pool."""
    cases = [
        ("fig_fabric", _FABRIC_PARAMS),
        ("fig_aggregation", _AGG_PARAMS),
        ("fig_zero3", _ZERO3_PARAMS),
    ]
    fanned = [registry.run_experiment(name, params) for name, params in cases]
    real_pool = executor._pool

    def guarded_pool(workers):
        # _pool forks its workers, so they start with this patch in place
        if executor._IN_WORKER:
            raise AssertionError("a sweep worker started a nested pool")
        return real_pool(workers)

    executor._pool = guarded_pool
    try:
        report = run_sweep(
            [SweepCell.make(name, params, seed=0) for name, params in cases],
            jobs=2,
        )
    finally:
        executor._pool = real_pool
    errors = [o.error for o in report.outcomes if o.error]
    assert not errors, f"sweep cells failed: {errors}"
    for (name, _), fresh, outcome in zip(cases, fanned, report.outcomes):
        assert canonical_json(outcome.result.rows) == canonical_json(
            fresh.rows
        ), f"{name}: fanned-out rows differ from the sweep worker's inline rows"
    cpus = executor._usable_cpus()
    print(f"fan-out: fig_fabric, fig_aggregation, fig_zero3 on {cpus} "
          "CPU(s) == inline in a 2-worker sweep, no nested pool"
          + ("" if cpus > 1 else " (1 CPU: both sides ran inline)"))


#: Wall-clock gate on the full-size paper runs (seconds, env-overridable).
FULL_SIZE_GATE = float(os.environ.get("EXP_SMOKE_FULL_GATE", "480"))


def check_full_size() -> None:
    """The paper-scale runs: fig10_full + fig13_full inside the gate,
    and the worker pool never changes the rows.

    ``fig10_full`` is the paper's 1775-step GPT-2 fine-tune (baseline +
    TECO as two pool cells); ``fig13_full`` sweeps DBA activation over
    (0, 100, 500, 1000, 1775) at the same scale.  Both must finish
    within ``EXP_SMOKE_FULL_GATE`` seconds combined; a reduced
    ``fig13_full`` (cells in pool workers) additionally hashes equal to
    the sequential in-process ``fig13`` with the same parameters.
    """
    t0 = time.perf_counter()
    fig10 = registry.run_experiment("fig10_full")
    fig13 = registry.run_experiment("fig13_full")
    wall = time.perf_counter() - t0
    assert len(fig10.rows) == 1775, f"fig10_full rows: {len(fig10.rows)}"
    assert [r["act_aft_steps"] for r in fig13.rows] == [0, 100, 500, 1000, 1775]
    assert all(r["speedup"] >= 1.0 for r in fig13.rows)
    assert wall <= FULL_SIZE_GATE, (
        f"full-size fig10+fig13 took {wall:.0f}s "
        f"(gate {FULL_SIZE_GATE:.0f}s; override with EXP_SMOKE_FULL_GATE)"
    )
    reduced = {"sweep": [0, 15, 30], "total_steps": 30, "paper_total_steps": 1775}
    pooled = registry.run_experiment("fig13_full", reduced, seed=1)
    inline = registry.run_experiment("fig13", reduced, seed=1)
    assert pooled.result_hash == inline.result_hash, (
        "fig13_full rows differ from fig13 with the same params"
    )
    print(f"full-size: fig10_full (1775 steps) + fig13_full (5-point sweep) "
          f"in {wall:.0f}s (gate {FULL_SIZE_GATE:.0f}s), "
          f"fig13_full == fig13 (hash {pooled.result_hash[:12]})")


def check_speedup() -> None:
    """jobs=4 vs jobs=1 wall time; enforced only with enough CPUs."""
    serial = run_sweep(_cells(), jobs=1)
    parallel = run_sweep(_cells(), jobs=4)
    assert serial.failed == 0 and parallel.failed == 0
    assert serial.sweep_hash == parallel.sweep_hash, (
        "jobs=1 and jobs=4 disagree on result hashes"
    )
    speedup = serial.wall_seconds / max(parallel.wall_seconds, 1e-9)
    cpus = executor._usable_cpus()
    print(f"speedup: jobs=1 {serial.wall_seconds:.2f}s, "
          f"jobs=4 {parallel.wall_seconds:.2f}s "
          f"({speedup:.2f}x on {cpus} usable CPU(s))")
    if cpus >= SPEEDUP_MIN_CPUS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"jobs=4 only {speedup:.2f}x faster than jobs=1 "
            f"(floor {SPEEDUP_FLOOR}x on {cpus} CPUs)"
        )
    else:
        print(f"  (informational only: < {SPEEDUP_MIN_CPUS} CPUs, "
              "parallel speedup not enforceable here)")


def main() -> int:
    """Run every check; return a process exit code."""
    t0 = time.perf_counter()
    registry.ensure_registered()
    with tempfile.TemporaryDirectory(prefix="exp-smoke-") as cache_root:
        check_registry()
        check_cached_equals_fresh(cache_root)
        check_mini_sweep(cache_root)
        check_fabric(cache_root)
        check_aggregation(cache_root)
        check_activation(cache_root)
        check_zero3(cache_root)
        check_kvcache(cache_root)
        check_fan_out()
        check_full_size()
        check_speedup()
    print(f"exp-smoke OK in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
