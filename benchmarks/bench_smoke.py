#!/usr/bin/env python
"""Smoke bench-regression gate (``make bench-smoke``).

Runs the hot kernels of the memsim -> trace -> DBA pipeline plus one
headline end-to-end op at *tiny* shapes (a couple of seconds total),
writes ``BENCH_smoke.json`` next to this file, and fails — exit status 1
— if any op has regressed more than 2x against the committed
``BENCH_baseline.json``.  The 2x gate is deliberately loose: it ignores
machine jitter and CI noise but catches the accidental
"vectorized path fell back to the Python loop" class of regression.

Refreshing the baseline (after an intentional perf change, on a quiet
machine)::

    PYTHONPATH=src python benchmarks/bench_smoke.py --update-baseline

and commit the regenerated ``BENCH_baseline.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.dba import Aggregator, DBARegister, Disaggregator
from repro.memsim import CacheHierarchy, SetAssociativeCache, WritebackTrace
from repro.models import evaluation_models
from repro.offload import SystemKind, simulate_system
from repro.trace import replay_trace, simulate_sweep_writebacks

HERE = Path(__file__).parent
SMOKE_PATH = HERE / "BENCH_smoke.json"
BASELINE_PATH = HERE / "BENCH_baseline.json"
REGRESSION_FACTOR = 2.0
REPEATS = 5  # best-of-N wall time per op

#: The observability layer must be free when disabled: the null-object
#: default path of the instrumented simulation is gated at 3% of the
#: committed baseline, not the loose 2x of the other ops.
TRACER_OVERHEAD_FACTOR = 1.03
TRACER_OVERHEAD_OP = "tracer_disabled_engine_steps"


def _timed(fn, elements, repeats=REPEATS):
    """Best-of-N seconds and derived elements/s throughput for ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return {"seconds": best, "throughput": elements / best, "elements": elements}


def op_dba_pack():
    n = 1 << 16
    tensor = np.random.default_rng(2).standard_normal(n).astype(np.float32)
    agg = Aggregator(DBARegister.paper_default())
    return _timed(lambda: agg.pack_tensor(tensor), n)


def op_dba_unpack():
    n = 1 << 16
    rng = np.random.default_rng(3)
    reg = DBARegister.paper_default()
    stale = rng.standard_normal(n).astype(np.float32)
    payload = Aggregator(reg).pack_tensor(
        rng.standard_normal(n).astype(np.float32)
    )
    dis = Disaggregator(reg)
    return _timed(lambda: dis.unpack(stale, payload), n)


def op_trace_replay():
    n = 1 << 18
    times = np.sort(np.random.default_rng(4).random(n))
    trace = WritebackTrace(times, np.arange(n, dtype=np.uint64) * 64)
    return _timed(lambda: replay_trace(trace), n)


def op_sweep_trace():
    param_bytes = 64 * 1024

    def run():
        hierarchy = CacheHierarchy(
            [SetAssociativeCache(8 * 2**10, 64, 8, name="L1D")]
        )
        simulate_sweep_writebacks(param_bytes, 1.0, hierarchy)

    return _timed(run, param_bytes // 64)


def op_headline_system_model():
    spec = evaluation_models()[0]

    def run():
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, 4)
        red = simulate_system(SystemKind.TECO_REDUCTION, spec, 4)
        assert red.comm_overhead_reduction_vs(base) > 0

    return _timed(run, 1)


def op_fabric_cluster_step():
    """End-to-end multi-tenant cluster step over the shared CXL fabric.

    2 hosts x 2 tenants, fair-share pool: exercises the whole fabric
    path — cell pipelining through port/switch/pool SerialLinks, the
    pool partitioning, and per-tenant accounting — as one headline op
    (one element = one full cluster step).
    """
    from repro.offload import ClusterEngine
    from repro.offload.parallel import ClusterParams

    spec = evaluation_models()[0]

    def run():
        result = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            spec,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=2,
            n_tenants=2,
        ).simulate_step()
        assert result.fabric_bytes > 0

    return _timed(run, 1)


def op_infabric_reduce_8rank():
    """In-fabric reduction of 8 rank streams over an 8-port fabric.

    Exercises the FabricReducer DES hot path — per-rank port transmits,
    switch hand-offs, the per-cell rank barrier, the reduce ALU, and the
    single reduced pool crossing (one element = one full 8-rank
    reduction of 8 MiB per rank).
    """
    from repro.interconnect.fabric import CXLFabric, FabricParams
    from repro.sim import Simulator

    n_bytes = 8 * 2**20

    def run():
        sim = Simulator()
        fabric = CXLFabric(sim, FabricParams(n_ports=8, n_tenants=1))
        reducer = fabric.reducer(ranks=range(8))
        reducer.reduce(n_bytes)
        sim.run()
        assert reducer.bytes_out == n_bytes

    return _timed(run, 1)


def op_tracer_disabled_steps():
    """The instrumented DES hot path with observability OFF.

    Every SerialLink transfer / queue op / engine step now tests
    ``tracer.enabled`` on the shared null objects; this op gates that the
    disabled path stays within :data:`TRACER_OVERHEAD_FACTOR` (3%) of the
    committed baseline wall time.  Many best-of repeats over a batch of
    steps keep the measurement tight enough for a 3% gate.
    """
    from repro.offload import TECOEngine

    spec = evaluation_models()[0]
    engine = TECOEngine(spec, 4)  # no active profile: the null objects
    n_steps = 5

    def run():
        for _ in range(n_steps):
            engine.simulate_step()

    return _timed(run, n_steps, repeats=25)


OPS = {
    "dba_pack_64k_words": op_dba_pack,
    "dba_unpack_64k_words": op_dba_unpack,
    "trace_replay_256k_events": op_trace_replay,
    "sweep_trace_64KiB_arena": op_sweep_trace,
    "headline_system_model": op_headline_system_model,
    "fabric_cluster_step_2x2": op_fabric_cluster_step,
    "infabric_reduce_8rank": op_infabric_reduce_8rank,
    TRACER_OVERHEAD_OP: op_tracer_disabled_steps,
}


def main(argv) -> int:
    update = "--update-baseline" in argv
    results = {}
    for name, op in OPS.items():
        results[name] = op()
        print(
            f"{name:32s} {results[name]['seconds'] * 1e3:9.3f} ms   "
            f"{results[name]['throughput']:.3g} el/s"
        )
    SMOKE_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {SMOKE_PATH}")

    if update:
        BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if not BASELINE_PATH.exists():
        print(f"ERROR: no baseline at {BASELINE_PATH}; run --update-baseline")
        return 1

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for name, cur in results.items():
        ref = baseline.get(name)
        if ref is None:
            print(f"NOTE: {name} not in baseline (new op) — skipped")
            continue
        gate = (
            TRACER_OVERHEAD_FACTOR
            if name == TRACER_OVERHEAD_OP
            else REGRESSION_FACTOR
        )
        ratio = cur["seconds"] / ref["seconds"]
        status = "OK" if ratio <= gate else "REGRESSED"
        print(f"{name:32s} {ratio:5.2f}x baseline (gate {gate}x)   {status}")
        if ratio > gate:
            failures.append((name, ratio, gate))
    if failures:
        print(
            f"FAIL: {len(failures)} op(s) over their gate: "
            + ", ".join(
                f"{n} ({r:.2f}x > {g}x)" for n, r, g in failures
            )
        )
        return 1
    print("bench smoke gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
