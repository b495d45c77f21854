"""End-to-end benchmark runner: whole registry experiments, fresh processes.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload finetune-dba --seed 0
    python3 benchmarks/e2e/run.py --workload paper-sweep --trace 1
    python3 benchmarks/e2e/run.py --runs 10 --out results/bench-e2e/set1
    python3 benchmarks/e2e/run.py --compare set1/set.json set2/set.json

One run of a workload first times a few set-up-only children, then runs
repetitions — each a fresh ``child.py`` process, one at a time — until
``run_seconds`` (``BENCHMARK.json``) of measurement is used, and at
least two.  It checks every repetition's result hashes (against
``reference.json`` for recorded seeds, else against the run's first
repetition) and prints each end-to-end metric with its unit.  With
``--trace 1`` repetitions alternate between untraced and traced (see
``layers.py``), and the run prints per-layer metrics, a self-time table
and the tracing overhead instead.  Every run's output ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``, named as
in ``BENCHMARK.json``.  For one workload and one run that line is the
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
# This process imports repro only to merge and validate traces.
sys.path.insert(0, str(SRC))
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
BASELINES = HERE / "baselines"
DEFAULT_OUT = REPO / "results" / "bench-e2e"

#: Set-up-only children timed per run, after one untimed warm-up (which
#: compiles bytecode on a fresh checkout).
SETUP_PROBES = 3
#: Per-run budget, counted from the start of each run: children still
#: running then are killed.  One workload at one seed is one run, so
#: ``--runs N`` or several workloads take up to N times as long.
HARD_CAP_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (no sources, broken child)."""


# -- statistics ----------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def compare_label(
    a, b, better: str, bound: float, noise: float = 0.0, absolute: bool = False
) -> str:
    """Label run set ``b`` against ``a``: improved/unchanged/worse/unresolved.

    ``bound`` is the share of ``a``'s median by which ``b`` may be worse
    (an absolute difference when ``absolute``).  When either side's
    spread exceeds the bound the pair is unresolved, unless every run on
    one side beats every run on the other *and* the medians differ by
    more than that spread.  ``noise`` is how far two run sets of one
    commit were seen to differ (see :func:`noise_floors`): a move past
    the bound but within it is unresolved too.
    """
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if absolute:
        delta, spread = sign * (mb - ma), 0.0
    else:
        delta = sign * (mb - ma) / ma
        spread = max(rel_spread(a), rel_spread(b))
    if spread > bound:
        separated = all(sign * (y - x) < 0 for x in a for y in b) or all(
            sign * (y - x) > 0 for x in a for y in b
        )
        if not (separated and abs(delta) > spread):
            return "unresolved"
    if bound < abs(delta) <= noise:
        return "unresolved"
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "improved"
    return "unchanged"


# -- children ------------------------------------------------------------------
def child_spec(
    workload: str,
    seed: int,
    rep: int,
    work: Path,
    trace: bool = False,
    setup_only: bool = False,
    overrides: dict | None = None,
) -> dict:
    """The JSON job spec ``child.py`` takes (see its docstring)."""
    return {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "trace": trace,
        "setup_only": setup_only,
        "work_dir": str(work),
        "out": str(work / f"out-{rep}.json"),
        "overrides": overrides or {},
    }


def run_child(spec: dict, timeout: float) -> dict:
    """Run one child to completion (its whole process group on timeout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_CACHE_DIR"] = os.path.join(spec["work_dir"], "cache")
    env["TMPDIR"] = spec["work_dir"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        result = {"error": f"child timed out after {timeout:.0f} s"}
    else:
        if proc.returncode == 0 and os.path.exists(spec["out"]):
            with open(spec["out"], encoding="utf-8") as fh:
                result = json.load(fh)
        else:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            result = {"error": f"child exited {proc.returncode}: {tail[0]}"}
    result["elapsed"] = time.perf_counter() - t0
    return result


def load_benchmark() -> dict:
    """``BENCHMARK.json``: metric units, directions, bounds, run length."""
    path = REPO / "BENCHMARK.json"
    if not path.exists():
        raise HarnessError(f"{path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    """Recorded result hashes: workload -> seed -> op -> hash."""
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_ops(reps: list[dict], expected: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every repetition's ops.

    An op fails when it raised, failed its workload check, or its hash
    differs from ``expected`` (the recorded reference; without one, the
    hash the run's first repetition produced).  A repetition whose child
    died counts as one failed op.
    """
    attempted, failed, errors = 0, 0, []
    first: dict[str, str] = {}
    for i, rep in enumerate(reps):
        if "error" in rep:
            attempted, failed = attempted + 1, failed + 1
            errors.append(f"rep {i}: {rep['error']}")
            continue
        for op in rep["ops"]:
            attempted += 1
            error = op["error"]
            if error is None and op["hash"] is not None:
                want = (
                    expected.get(op["op"])
                    if expected is not None
                    else first.setdefault(op["op"], op["hash"])
                )
                if op["hash"] != want:
                    error = f"result hash {op['hash'][:12]} != expected {str(want)[:12]}"
            if error is not None:
                failed += 1
                errors.append(f"rep {i} {op['op']}: {error}")
    return attempted, failed, errors


# -- one run -------------------------------------------------------------------
def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    overrides: dict | None = None,
) -> dict:
    """One run: set-up probes, then repetitions for ``seconds``.

    Returns the raw repetition records plus the correctness tally; see
    :func:`summarize_run` for the metrics.
    """
    started = time.perf_counter()
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def spec(rep: int, **kw) -> dict:
        return child_spec(workload, seed, rep, work, overrides=overrides, **kw)

    def remaining() -> float:
        return HARD_CAP_S - (time.perf_counter() - started)

    try:
        probes = []
        for i in range(SETUP_PROBES + 1):
            probe = run_child(spec(-1 - i, setup_only=True), remaining())
            if "error" in probe:
                raise HarnessError(f"set-up child failed: {probe['error']}")
            if i:
                probes.append(probe["setup_s"])
        reps: list[dict] = []
        t0 = time.perf_counter()
        while remaining() > 0:
            traced = trace and len(reps) % 2 == 1
            rep = run_child(spec(len(reps), trace=traced), remaining())
            rep["traced"] = traced
            reps.append(rep)
            if len(reps) < 2:  # a median needs two; a traced run needs a pair
                continue
            typical = statistics.median(r["elapsed"] for r in reps)
            if time.perf_counter() - t0 + typical > seconds:
                break
        expected = load_reference().get(workload, {}).get(str(seed))
        attempted, failed, errors = check_ops(reps, expected)
        record = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "setup_probes": probes,
            "reps": reps,
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
        }
        if trace:
            record["layers"] = trace_layers(reps, out_dir, f"{workload}-seed{seed}")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_layers(reps: list[dict], out_dir: Path, stem: str) -> dict:
    """Merge the traced repetitions' traces and derive per-layer numbers."""
    import layers
    from repro.obs import validate_chrome_trace

    traced = [r for r in reps if r["traced"] and "traces" in r]
    if not traced:
        raise HarnessError("no traced repetition completed")
    per_rep = []
    for rep in traced:
        summary = layers.summarize([layers.load_events(p) for p in rep["traces"]])
        per_rep.append((summary, layers.layer_metrics(summary)))
    path = out_dir / f"{stem}-trace.json"
    events = layers.merge_traces([p for r in traced for p in r["traces"]], str(path))
    problems = validate_chrome_trace({"traceEvents": events})
    if problems:
        raise HarnessError(f"invalid Chrome trace {path}: {problems[:3]}")
    metrics = {
        key: statistics.median(m[key] for _, m in per_rep) for key in per_rep[0][1]
    }
    seconds = {
        layer: statistics.median(layers.layer_seconds(s)[layer] for s, _ in per_rep)
        for layer in layers.LAYERS
    }
    return {"metrics": metrics, "self_s": seconds, "trace_file": str(path)}


def summarize_run(record: dict, bench: dict) -> dict:
    """The run's metrics: ``{name: {"value", "unit", ...}}``.

    Untraced runs give the ``end_to_end`` metrics (medians over the
    repetitions, with min/max); traced runs give the ``per_layer`` ones,
    and keep every derived number in ``record["layers"]["numbers"]``.
    """
    ok = [r for r in record["reps"] if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    if not plain:
        raise HarnessError("no untraced repetition completed: " + "; ".join(record["errors"][:3]))
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": record["setup_probes"] + [r["setup_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if not record["trace"]:
        out = {}
        for m in bench["end_to_end"]:
            values = samples[m["name"]]
            out[m["name"]] = {
                "value": statistics.median(values),
                "unit": m["unit"],
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
        return out
    numbers = dict(record["layers"]["metrics"])
    traced_wall = [r["wall_s"] for r in ok if r["traced"]]
    numbers["trace_overhead_frac"] = (
        statistics.median(traced_wall) / statistics.median(samples["wall_s"]) - 1.0
    )
    extra = {
        key: statistics.median(r["extra"][key] for r in ok) for key in ok[0]["extra"]
    }
    if extra:
        wall = statistics.median(samples["wall_s"])
        numbers.update(
            {
                "executor.cells": extra["executor.cells"],
                "executor.longest_cell_frac": extra["executor.longest_cell_s"] / wall,
                "executor.overhead_frac": extra["executor.overhead_s"] / wall,
                "executor.busy_frac": extra["executor.busy_frac"],
                "cache.hits": extra["cache.hits"],
                "cache.misses": extra["cache.misses"],
                "cache.warm_hit_ratio": extra["cache.warm_hit_ratio"],
                "cache.warm_cells_per_s": (
                    extra["executor.cells"] / extra["cache.warm_pass_s"]
                ),
            }
        )
    record["layers"]["numbers"] = numbers
    return {
        m["name"]: {"value": numbers.get(m["name"], 0.0), "unit": m["unit"]}
        for m in bench["per_layer"]
    }


def print_run(record: dict, metrics: dict) -> None:
    """Human-readable lines for one run."""
    wl, n_reps = record["workload"], len(record["reps"])
    print(f"== {wl} seed={record['seed']} trace={int(record['trace'])} "
          f"reps={n_reps} setup_probes={len(record['setup_probes'])}")
    if not record["trace"]:
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']:<4} "
                  f"(min {m['min']:.4f}, max {m['max']:.4f}, n={m['n']})")
    else:
        layers = record["layers"]
        total = sum(layers["self_s"].values())
        print(f"  {'layer':<14} {'self_s':>9} {'share':>7}")
        for layer, sec in layers["self_s"].items():
            share = sec / total if total else 0.0
            print(f"  {layer:<14} {sec:>9.3f} {share:>7.1%}")
        numbers = layers["numbers"]
        print(f"  trace_overhead_frac {numbers['trace_overhead_frac']:+.3f}"
              f"  coverage {numbers['layers.coverage_frac']:.3f}"
              f"  trace {layers['trace_file']}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'failed_frac':<14} {frac:>12.4f} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    for error in record["errors"][:10]:
        print(f"  FAILED {error}")


def result_line(record: dict, metrics: dict) -> str:
    """The JSON line that ends one run's output."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()
            },
        }
    )


# -- run sets and comparison ---------------------------------------------------
def set_entry(record: dict, metrics: dict) -> dict:
    """What a run set keeps of one run."""
    return {
        "seed": record["seed"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }


def load_set(path) -> dict:
    """A run set's ``{workload: [run entry, ...]}``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def noise_floors(bench: dict) -> dict[str, float]:
    """Per metric, how far run sets of one commit differed in ``baselines/``.

    The larger of twice the widest spread (IQR / median) of any workload
    in any set, and the largest move of a workload's median between two
    sets.  Where a bound was capped below this, a move past the bound
    may still be the host and not the change.
    """
    sets = [load_set(p) for p in sorted(BASELINES.glob("set*.json"))]
    floors = {}
    for m in bench["end_to_end"]:
        values = [
            {wl: [r["metrics"][m["name"]] for r in runs] for wl, runs in s.items()}
            for s in sets
        ]
        spread = max((rel_spread(v) for s in values for v in s.values()), default=0.0)
        medians = [{wl: statistics.median(v) for wl, v in s.items()} for s in values]
        # The same expression as compare_label's delta, so that the pair
        # which sets the floor compares equal to it.
        drift = max(
            (
                abs(x[wl] - y[wl]) / y[wl]
                for x in medians for y in medians for wl in x if wl in y
            ),
            default=0.0,
        )
        floors[m["name"]] = max(2.0 * spread, drift)
    return floors


def compare_sets(path_a, path_b, bench: dict) -> list[tuple]:
    """Label every (metric, workload) pair of two run sets."""
    a, b = load_set(path_a), load_set(path_b)
    floors = noise_floors(bench)
    rows = []
    for wl in [w for w in a if w in b]:
        for m in bench["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name] for r in a[wl]]
            vb = [r["metrics"][name] for r in b[wl]]
            label = compare_label(va, vb, m["better"], m["bound"], floors[name])
            delta = statistics.median(vb) / statistics.median(va) - 1.0
            rows.append((name, wl, statistics.median(va), statistics.median(vb), delta,
                         max(rel_spread(va), rel_spread(vb)), m["bound"], floors[name],
                         label))
        fa = [r["failed"] / r["attempted"] for r in a[wl]]
        fb = [r["failed"] / r["attempted"] for r in b[wl]]
        rows.append(("failed_frac", wl, statistics.median(fa), statistics.median(fb),
                     statistics.median(fb) - statistics.median(fa), 0.0, 0.0, 0.0,
                     compare_label(fa, fb, "lower", 0.0, absolute=True)))
    return rows


def record_reference(out_dir: Path) -> dict:
    """Result hashes of one repetition per workload for seeds 0 and 1."""
    reference: dict = {}
    for wl in WORKLOADS:
        for seed in (0, 1):
            work = out_dir / f"ref-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                rep = run_child(child_spec(wl, seed, 0, work), timeout=600.0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            _, failed, errors = check_ops([rep], None)
            if failed:
                raise HarnessError(f"{wl} seed {seed}: {errors[:3]}")
            reference.setdefault(wl, {})[str(seed)] = {
                op["op"]: op["hash"] for op in rep["ops"] if op["hash"] is not None
            }
            print(f"recorded {wl} seed {seed}: {len(reference[wl][str(seed)])} hashes")
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    # The run length is BENCHMARK.json's run_seconds, so that two commits
    # always run the same length; the flag exists only because the
    # benchmark's command-line contract passes it, and must agree.
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for traces and run sets")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="label two run sets' (metric, workload) pairs")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from seeds 0 and 1")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "repro" / "__init__.py").exists():
            raise HarnessError(f"no repro sources under {SRC}")
        bench = load_benchmark()
        out_dir = Path(args.out).resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.compare:
            rows = compare_sets(*args.compare, bench)
            print(f"{'metric':<12} {'workload':<18} {'median A':>10} {'median B':>10} "
                  f"{'delta':>7} {'spread':>7} {'bound':>6} {'noise':>6}  label")
            for name, wl, ma, mb, delta, spread, bound, noise, label in rows:
                print(f"{name:<12} {wl:<18} {ma:>10.4f} {mb:>10.4f} {delta:>+7.1%} "
                      f"{spread:>7.1%} {bound:>6.0%} {noise:>6.0%}  {label}")
            counts = {lab: sum(r[-1] == lab for r in rows)
                      for lab in ("improved", "unchanged", "worse", "unresolved")}
            print(json.dumps(counts))
            return 0
        if args.record_reference:
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(record_reference(out_dir), fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        seconds = bench["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            raise HarnessError(
                f"--seconds {args.seconds:g} differs from run_seconds {seconds} "
                "in BENCHMARK.json"
            )
        names = [args.workload] if args.workload else list(WORKLOADS)
        runs: dict[str, list] = {}
        for wl in names:
            for i in range(args.runs):
                record = measure(wl, args.seed + i, seconds, bool(args.trace), out_dir)
                metrics = summarize_run(record, bench)
                print_run(record, metrics)
                print(result_line(record, metrics), flush=True)
                runs.setdefault(wl, []).append(set_entry(record, metrics))
        if args.runs > 1:
            path = out_dir / "set.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"seconds": seconds, "trace": bool(args.trace),
                           "workloads": runs}, fh, indent=1)
            print(f"run set written to {path}")
            for wl, entries in runs.items():
                for name in entries[0]["metrics"]:
                    values = [e["metrics"][name] for e in entries]
                    print(f"  {wl:<18} {name:<32} median {statistics.median(values):.4f}"
                          f"  IQR/median {rel_spread(values):.2%}")
        return 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
