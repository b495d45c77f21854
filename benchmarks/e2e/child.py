"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition with a JSON job spec
as its only argument and reads the JSON result it writes to the spec's
``out`` path.  Everything a user pays for on ``repro run <exp>
--no-cache`` is paid here every time: interpreter start, imports,
registry population and proxy pre-training, with no memo carried over
from an earlier repetition.

Job spec keys: ``workload``, ``seed``, ``rep``, ``trace`` (bool),
``setup_only`` (bool), ``work_dir``, ``out`` and ``overrides`` (experiment
name -> parameter overrides; the self-tests use it to shrink workloads).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time

#: The 20 experiments of ``paper-sweep``: every registry experiment except
#: the three other workloads' (fig13, fig_fabric, fig_aggregation), the
#: functional fine-tune sweeps (fig10, fig10-albert, table5, dirty-bytes),
#: and the aliases/presets (ablations, fig10_full, fig13_full).
SWEEP_EXPERIMENTS = (
    "table1", "fig2", "invalidation", "fig11", "fig12", "table6", "table7",
    "table8", "comm-volume", "overheads", "lammps", "dpu", "granularity",
    "interconnect", "seqlen", "scaling", "fig_activation", "fig_zero3",
    "fig_kvcache", "models",
)

#: Sweep workers (the host has 2 CPUs) and warm resubmits per repetition.
SWEEP_JOBS = 2
WARM_PASSES = 5


def _op(name, result=None, error=None) -> dict:
    return {
        "op": name,
        "hash": None if result is None else result.result_hash,
        "error": error,
    }


def _check_fig13(rows) -> str | None:
    speedups = [r["speedup"] for r in rows]
    if not all(math.isfinite(r["perplexity"]) and r["perplexity"] > 1 for r in rows):
        return "non-finite or sub-1 perplexity"
    if speedups != sorted(speedups, reverse=True):
        return f"speedup not non-increasing in act_aft_steps: {speedups}"
    return None


def _check_fig_fabric(rows) -> str | None:
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r["nodes"], r["policy"]), []).append(r["slowdown"])
    for key, slowdowns in groups.items():
        if slowdowns != sorted(slowdowns) or slowdowns[0] != 1.0:
            return f"slowdown not monotone in tenants for {key}: {slowdowns}"
    return None


def _check_fig_aggregation(rows) -> str | None:
    groups: dict[tuple, dict] = {}
    for r in rows:
        groups.setdefault((r["ranks"], r["policy"]), {})[r["format"]] = r["wire_gb"]
    for key, w in groups.items():
        half = min(w["fp16"], w["bf16"])
        if not (w["fp32"] > max(w["fp16"], w["bf16"])
                and half > max(w["fp8-e4m3"], w["int8-dba"])):
            return f"wire bytes not ordered fp32 > 16-bit > 8-bit for {key}: {w}"
    if not all(math.isfinite(r["perplexity"]) for r in rows):
        return "non-finite proxy perplexity"
    return None


def _experiment(name, check):
    def run(spec):
        from repro.experiments.registry import run_experiment

        t0 = time.perf_counter()
        try:
            result = run_experiment(
                name, params=spec["overrides"].get(name), seed=spec["seed"]
            )
        except Exception as exc:  # reported as a failed op
            return time.perf_counter() - t0, [_op(name, error=repr(exc))], {}
        wall = time.perf_counter() - t0
        return wall, [_op(name, result, check(result.rows))], {}

    return run


def _paper_sweep(spec):
    """Cold 2-worker sweep into a fresh cache, then warm resubmits."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.executor import SweepCell, run_sweep

    seed, overrides = spec["seed"], spec["overrides"]
    cells = [
        SweepCell.make(name, overrides.get(name), seed=s)
        for s in (seed, seed + 1)
        for name in SWEEP_EXPERIMENTS
    ]
    cache = ResultCache(root=os.path.join(spec["work_dir"], f"cache-{spec['rep']}"))
    t0 = time.perf_counter()
    cold = run_sweep(cells, jobs=SWEEP_JOBS, cache=cache)
    wall = time.perf_counter() - t0
    ops = [{"op": "sweep", "hash": cold.sweep_hash, "error": None}]
    cold_hash = {}
    for o in cold.outcomes:
        label = f"{o.cell.experiment}@{o.seed}"
        cold_hash[label] = o.result.result_hash if o.result else None
        ops.append(_op(label, o.result, o.error))
    warm_s, warm_hits = [], 0
    for i in range(WARM_PASSES):
        t1 = time.perf_counter()
        warm = run_sweep(cells, jobs=SWEEP_JOBS, cache=cache)
        warm_s.append(time.perf_counter() - t1)
        warm_hits += warm.cache_hits
        for o in warm.outcomes:
            label = f"{o.cell.experiment}@{o.seed}"
            error = o.error
            if error is None and not o.cache_hit:
                error = "warm resubmit recomputed the cell"
            elif error is None and o.result.result_hash != cold_hash[label]:
                error = "warm hash differs from cold hash"
            ops.append({"op": f"warm{i}:{label}", "hash": None, "error": error})
    cell_s = [o.seconds for o in cold.outcomes]
    cell_sum = sum(cell_s)
    warm_cells = WARM_PASSES * len(cells)
    extra = {
        "executor.cells": len(cells),
        "executor.cell_s_sum": cell_sum,
        "executor.longest_cell_s": max(cell_s),
        "executor.overhead_s": wall - cell_sum / SWEEP_JOBS,
        "executor.busy_frac": cell_sum / (SWEEP_JOBS * wall),
        "cache.hits": cold.cache_hits + warm_hits,
        "cache.misses": cold.cache_misses,
        "cache.warm_hit_ratio": warm_hits / warm_cells,
        "cache.warm_pass_s": statistics.median(warm_s),
    }
    return wall, ops, extra


#: workload name -> body: spec -> (wall seconds, ops, extra numbers).
WORKLOADS = {
    "finetune-dba": _experiment("fig13", _check_fig13),
    "fabric-contention": _experiment("fig_fabric", _check_fig_fabric),
    "fabric-reduce": _experiment("fig_aggregation", _check_fig_aggregation),
    "paper-sweep": _paper_sweep,
}


def _peak_rss_mb() -> float:
    """Max resident set (MiB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str]) -> None:
    spec = json.loads(argv[0])
    t0 = time.perf_counter()
    from repro.experiments.registry import ensure_registered

    ensure_registered()
    out = {"setup_s": time.perf_counter() - t0}
    if not spec["setup_only"]:
        body = WORKLOADS[spec["workload"]]
        tracer = None
        if spec["trace"]:
            import layers

            spans_dir = os.path.join(spec["work_dir"], f"spans-{spec['rep']}")
            os.makedirs(spans_dir, exist_ok=True)
            tracer = layers.install(spec["rep"], spans_dir)
        wall, ops, extra = body(spec)
        out.update(wall_s=wall, ops=ops, extra=extra)
        if tracer is not None:
            trace = os.path.join(spec["work_dir"], f"rep-{spec['rep']}.json")
            tracer.dump(trace)
            cells = sorted(os.listdir(spans_dir))
            out["traces"] = [trace] + [os.path.join(spans_dir, f) for f in cells]
    out["peak_rss_mb"] = _peak_rss_mb()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
