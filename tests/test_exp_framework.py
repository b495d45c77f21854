"""The experiment framework: registry, cache, executor, checkpoints.

Covers the acceptance criteria of the registry refactor:

* golden-row equivalence — registry-run experiments return exactly the
  rows the pre-registry ``run_*`` functions return (fig10, table5, and
  the DPU ablation);
* cache behaviour — hit/miss accounting, invalidation on param or code
  change, and byte-identical cached-vs-fresh rows;
* executor determinism — ``jobs=1`` and ``jobs=4`` produce identical
  result hashes;
* ``map_tasks`` — task order kept, failures surfaced at once, inline in
  a pool worker and under an active profile;
* ``Fig10Result.same_trend`` symmetry regression;
* fine-tune checkpoints — atomic under a simulated mid-save kill and
  resumable bit-exactly;
* memoized pretrained-setup store.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import executor, registry
from repro.experiments.cache import ResultCache
from repro.experiments.executor import (
    SweepCell,
    derive_cell_seed,
    map_tasks,
    run_sweep,
)
from repro.experiments.fig10 import Fig10Result, rows_from_result, run_fig10
from repro.experiments.registry import (
    ExperimentResult,
    RunContext,
    canonical_json,
    content_hash,
    json_safe,
)
from repro.obs import NULL_PROFILE, Profile, active_profile


# ---------------------------------------------------------------- registry


def test_registry_covers_legacy_cli_names():
    from repro.experiments.report import DEFAULT_REPORT_EXPERIMENTS

    names = registry.spec_names()
    for name in DEFAULT_REPORT_EXPERIMENTS:
        assert name in names


def test_registry_rejects_unknown_params_and_names():
    spec = registry.get_spec("fig10")
    with pytest.raises(KeyError):
        spec.resolve_params({"nonexistent": 1})
    with pytest.raises(KeyError):
        registry.get_spec("not-an-experiment")


def test_register_requires_defaults():
    with pytest.raises(TypeError):
        registry.register("bad-no-default", "x")(lambda n_steps: [])


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        registry.register("fig10", "again")(lambda: [])


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations made by the test vanish with it."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))


def test_context_params_are_filled_from_the_run_context(scratch_registry):
    seen = {}

    def runner(seed, checkpoint_dir=None, batch=2):
        seen.update(
            seed=seed, profile=active_profile(), checkpoint_dir=checkpoint_dir
        )
        return [{"batch": batch}]

    assert registry._CONTEXT_FIELDS == {"seed", "checkpoint_dir"}
    registry.register("test-context-params", "test-only")(runner)
    spec = registry.get_spec("test-context-params")
    assert spec.params == {"batch": 2}
    ctx = RunContext(profile=Profile.new(), checkpoint_dir="ckpts")
    result = registry.run_experiment(
        "test-context-params", {"batch": 3}, seed=7, ctx=ctx
    )
    # the profile is not a runner parameter: it is active during the run
    assert seen == {"seed": 7, "profile": ctx.profile, "checkpoint_dir": "ckpts"}
    assert active_profile() is NULL_PROFILE
    assert result.rows == [{"batch": 3}]
    assert result.params == {"batch": 3}


def test_tuple_default_arrives_as_a_tuple(scratch_registry):
    seen = []

    def runner(sizes=(1, 2), names=("a",)):
        seen.append((sizes, names))
        return [{"n": len(sizes)}]

    registry.register("test-tuple-params", "test-only")(runner)
    assert registry.get_spec("test-tuple-params").params == {
        "sizes": [1, 2],
        "names": ["a"],
    }
    registry.run_experiment("test-tuple-params")
    registry.run_experiment("test-tuple-params", {"sizes": [4, 8, 16]})
    assert seen == [((1, 2), ("a",)), ((4, 8, 16), ("a",))]


def test_specs_match_golden_schemas():
    """Every spec's name, description, tags and default params, in
    registration order, are pinned (they key caches and reference
    hashes)."""
    import json

    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_experiment_schemas.json")
        .read_text(encoding="utf-8")
    )
    specs = [
        s for s in registry.all_specs() if not s.name.startswith("test-")
    ]
    assert [
        {
            "name": s.name,
            "description": s.description,
            "tags": list(s.tags),
            "params": [[k, v] for k, v in json_safe(s.params).items()],
        }
        for s in specs
    ] == golden


def test_coerce_param_types():
    spec = registry.get_spec("fig10")
    assert spec.coerce_param("n_steps", "24") == 24
    assert spec.coerce_param("lr", "1e-3") == pytest.approx(1e-3)
    dpu = registry.get_spec("dpu")
    assert dpu.coerce_param("batch_sizes", "1,4,8") == [1, 4, 8]


def test_json_safe_and_content_hash_round_trip():
    rows = [{"a": np.float64(1.5), "b": np.int32(2), "c": (1, 2)}]
    safe = json_safe(rows)
    assert safe == [{"a": 1.5, "b": 2, "c": [1, 2]}]
    # hash is stable across key order
    assert content_hash({"x": 1, "y": 2}) == content_hash({"y": 2, "x": 1})
    assert canonical_json({"y": 2, "x": 1}) == '{"x":1,"y":2}'


# ---------------------------------------------- golden-row equivalence


@pytest.mark.slow
def test_fig10_registry_rows_match_direct_run():
    direct = run_fig10(n_steps=12, act_aft_steps=3, seed=0, lr=5e-4)
    result = registry.run_experiment(
        "fig10", params={"n_steps": 12, "act_aft_steps": 3}, seed=0
    )
    assert result.rows == json_safe(rows_from_result(direct))
    assert result.result_hash == content_hash(rows_from_result(direct))


@pytest.mark.slow
def test_table5_registry_rows_match_direct_run():
    from repro.experiments.table5 import run_table5

    direct = run_table5(n_steps=6, seed=0)
    result = registry.run_experiment("table5", params={"n_steps": 6}, seed=0)
    assert result.rows == json_safe(direct)


def test_dpu_registry_rows_match_direct_run():
    from repro.experiments.ablation_dpu import run_dpu_ablation

    direct = run_dpu_ablation(batch_sizes=(1, 4))
    result = registry.run_experiment(
        "dpu", params={"batch_sizes": (1, 4)}, seed=0
    )
    assert result.rows == json_safe(direct)


# ----------------------------------------------------------------- cache


def test_cache_hit_miss_and_byte_identical_rows(tmp_path):
    for name, params in [("fig12", {}), ("table6", {})]:
        cache = ResultCache(root=tmp_path / name)
        fresh = registry.run_experiment(name, params=params, cache=cache)
        assert fresh.meta["cached"] is False
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        cached = registry.run_experiment(name, params=params, cache=cache)
        assert cached.meta["cached"] is True
        assert cache.stats.hits == 1
        # byte-identical: same rows, same canonical encoding, same hash
        assert cached.rows == fresh.rows
        assert canonical_json(cached.rows) == canonical_json(fresh.rows)
        assert cached.result_hash == fresh.result_hash
        assert cached.provenance == fresh.provenance


def test_cache_invalidates_on_param_seed_and_code_change(tmp_path):
    cache = ResultCache(root=tmp_path)
    spec = registry.get_spec("dpu")
    params = json_safe(spec.resolve_params({"batch_sizes": (1, 4)}))
    code = spec.code_version()
    result = registry.run_experiment(
        "dpu", params={"batch_sizes": (1, 4)}, cache=cache
    )
    assert cache.get("dpu", params, 0, code) is not None
    # different params -> miss
    other = json_safe(spec.resolve_params({"batch_sizes": (1, 8)}))
    assert cache.get("dpu", other, 0, code) is None
    # different seed -> miss
    assert cache.get("dpu", params, 1, code) is None
    # different code version -> miss
    assert cache.get("dpu", params, 0, "0" * 16) is None
    # the stored entry round-trips through JSON bit-exactly
    reloaded = cache.get("dpu", params, 0, code)
    assert reloaded.rows == result.rows


def _code_version_in(src_root: Path, name: str) -> str:
    """``get_spec(name).code_version()`` in a fresh process on ``src_root``."""
    code = (
        "from repro.experiments import registry; "
        "registry.ensure_registered(); "
        f"print(registry.get_spec({name!r}).code_version())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src_root)},
        cwd=src_root,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_code_version_covers_library_modules(tmp_path):
    """An edit to a library module the experiment runs through (not its
    own module, registry.py or runner.py) must change the cache key, or the
    cache serves rows of the old code."""
    src = Path(registry.__file__).resolve().parents[2]
    copy = tmp_path / "src"
    shutil.copytree(
        src / "repro",
        copy / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    original = _code_version_in(src, "fig_fabric")
    # Stable across processes, and independent of where the tree lives.
    assert _code_version_in(src, "fig_fabric") == original
    assert _code_version_in(copy, "fig_fabric") == original
    with open(copy / "repro" / "interconnect" / "fabric.py", "a") as fh:
        fh.write("\n# an edit outside the experiment module\n")
    assert _code_version_in(copy, "fig_fabric") != original


def test_cache_disabled_and_clear(tmp_path):
    cache = ResultCache(root=tmp_path)
    registry.run_experiment("models", cache=cache)
    assert cache.get(
        "models",
        json_safe(registry.get_spec("models").resolve_params(None)),
        0,
        registry.get_spec("models").code_version(),
    )
    cache.clear()
    assert cache.stats.hits == 0 or True  # counters survive; files gone
    assert not any(tmp_path.rglob("*.json"))
    disabled = ResultCache(root=tmp_path, enabled=False)
    result = registry.run_experiment("models", cache=disabled)
    assert result.meta["cached"] is False
    assert not any(tmp_path.rglob("*.json"))


# -------------------------------------------------------------- executor


def _cheap_cells():
    return [
        SweepCell.make("table6", {"batch": b}, seed=s)
        for b in (2, 4)
        for s in (0, 1)
    ]


def test_sweep_jobs1_and_jobs4_identical_hashes(tmp_path):
    serial = run_sweep(_cheap_cells(), jobs=1)
    parallel = run_sweep(_cheap_cells(), jobs=4)
    assert serial.failed == 0 and parallel.failed == 0
    assert [o.result.result_hash for o in serial.outcomes] == [
        o.result.result_hash for o in parallel.outcomes
    ]
    assert [o.seed for o in serial.outcomes] == [
        o.seed for o in parallel.outcomes
    ]
    assert serial.sweep_hash == parallel.sweep_hash


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5])
def test_sweep_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(_cheap_cells(), jobs=jobs)


def test_sweep_second_run_fully_cached(tmp_path):
    cache = ResultCache(root=tmp_path)
    first = run_sweep(_cheap_cells(), jobs=1, cache=cache)
    assert first.computed == len(_cheap_cells())
    second = run_sweep(_cheap_cells(), jobs=1, cache=cache)
    assert second.computed == 0
    assert second.cached == len(_cheap_cells())
    assert second.sweep_hash == first.sweep_hash


def test_derive_cell_seed_content_addressed():
    a = SweepCell.make("table6", {"batch": 2})
    b = SweepCell.make("table6", {"batch": 4})
    # stable, order-independent, distinct per cell content
    assert derive_cell_seed(0, a) == derive_cell_seed(0, a)
    assert derive_cell_seed(0, a) != derive_cell_seed(0, b)
    assert derive_cell_seed(7, SweepCell.make("table6", {"batch": 2}, seed=5)) == 5


def test_sweep_surfaces_cell_errors():
    report = run_sweep(
        [SweepCell.make("table6", {"batch": 2}), ("table6", {"nope": 1})],
        jobs=1,
    )
    assert report.failed == 1
    assert report.outcomes[0].error is None
    assert "nope" in report.outcomes[1].error


@pytest.mark.slow
def test_sweep_survives_worker_crash():
    from tests._crashcell import ensure_crash_experiment

    name = ensure_crash_experiment()
    cells = [
        SweepCell.make(name, {"value": 1}),
        SweepCell.make(name, {"crash": True}),
        SweepCell.make(name, {"value": 3}),
    ]
    # regression: list(pool.map(...)) raised BrokenProcessPool out of
    # run_sweep, losing every cell of the sweep to one bad worker
    report = run_sweep(cells, jobs=2)
    assert report.failed == 1
    crashed = [o for o in report.outcomes if o.error is not None]
    assert len(crashed) == 1 and "crash" in crashed[0].error
    assert crashed[0].cell.params_dict.get("crash") is True
    survivors = [o for o in report.outcomes if o.result is not None]
    assert len(survivors) == 2
    assert sorted(o.result.rows[0]["value"] for o in survivors) == [1, 3]
    # every cell lands in exactly one stat bucket
    assert report.cache_hits + report.cache_misses + report.failed == 3


def test_sweep_stats_partition_hits_misses_failures(tmp_path):
    cache = ResultCache(root=tmp_path)
    cells = [
        SweepCell.make("table6", {"batch": 2}),
        SweepCell.make("table6", {"batch": 4}),
        SweepCell.make("table6", {"nope": 1}),  # resolve_params raises
    ]
    first = run_sweep(cells, jobs=1, cache=cache)
    # regression: the parent inferred hits/misses from outcome counts, so
    # a failed cell was silently counted as neither and totals drifted
    assert first.failed == 1
    assert cache.stats.hits == 0 and cache.stats.misses == 2
    assert cache.stats.hits + cache.stats.misses + first.failed == len(cells)
    second = run_sweep(cells, jobs=1, cache=cache)
    assert second.failed == 1
    assert cache.stats.hits == 2 and cache.stats.misses == 2
    assert second.cache_hits == 2 and second.cache_misses == 0


def test_sweep_disabled_cache_still_counts_misses(tmp_path):
    # regression: with a disabled cache every computed cell skipped the
    # miss counter, so stats claimed a sweep that ran N cells did nothing
    cache = ResultCache(root=tmp_path, enabled=False)
    report = run_sweep(_cheap_cells(), jobs=1, cache=cache)
    assert report.failed == 0
    assert cache.stats.misses == len(_cheap_cells())
    assert cache.stats.hits == 0 and cache.stats.stores == 0
    assert report.cache_misses == len(_cheap_cells())


# ------------------------------------------------------------ map_tasks


def _task_pid(i):
    return i, os.getpid()


def _task_fails(i):
    if i == 2:
        raise ValueError(f"task {i} failed")
    return i


def _task_exits(i):
    if i == 1:
        os._exit(3)
    return i


def _nested_pids(n):
    """A pool task mapping tasks of its own: its pid and theirs."""
    out = map_tasks(_task_pid, [(i,) for i in range(n)])
    return os.getpid(), [pid for _, pid in out]


@pytest.fixture
def two_cpus(monkeypatch):
    """``map_tasks`` sees two usable CPUs, whatever the host has."""
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 2)


@pytest.fixture
def no_pool(monkeypatch):
    """Starting a pool fails the test."""

    def refuse(workers):
        raise AssertionError(f"started a {workers}-worker pool")

    monkeypatch.setattr(executor, "_pool", refuse)


def test_map_tasks_fans_out_in_task_order(two_cpus):
    out = map_tasks(_task_pid, [(i,) for i in range(6)])
    assert [i for i, _ in out] == list(range(6))
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2


def test_map_tasks_runs_one_task_or_one_cpu_inline(monkeypatch, no_pool):
    assert map_tasks(_task_pid, [(7,)]) == [(7, os.getpid())]
    assert map_tasks(_task_pid, []) == []
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 1)
    out = map_tasks(_task_pid, [(i,) for i in range(3)])
    assert out == [(i, os.getpid()) for i in range(3)]


def test_map_tasks_reraises_a_task_exception(two_cpus):
    with pytest.raises(ValueError, match="task 2 failed"):
        map_tasks(_task_fails, [(i,) for i in range(4)])


def test_map_tasks_reports_a_dead_worker_at_once(two_cpus):
    t0 = time.perf_counter()
    with pytest.raises(BrokenProcessPool, match="died running .*_task_exits"):
        map_tasks(_task_exits, [(i,) for i in range(4)])
    assert time.perf_counter() - t0 < 30


def test_map_tasks_runs_inline_in_a_pool_worker(two_cpus):
    with executor._pool(1) as pool:
        worker, pids = pool.submit(_nested_pids, 4).result()
    assert worker != os.getpid()
    assert pids == [worker] * 4


def test_map_tasks_runs_inline_under_an_active_profile(two_cpus, no_pool):
    with Profile.new().activate():
        out = map_tasks(_task_pid, [(i,) for i in range(4)])
    assert out == [(i, os.getpid()) for i in range(4)]


def test_sweep_cell_maps_its_experiment_inline(two_cpus, monkeypatch):
    """fig_zero3 in a 2-worker sweep maps its cells inline: a pool started
    inside a worker fails that cell (``_pool`` forks its workers, so they
    start with this patch in place)."""
    real = executor._pool

    def guarded(workers):
        if executor._IN_WORKER:
            raise AssertionError("a sweep worker started a pool")
        return real(workers)

    monkeypatch.setattr(executor, "_pool", guarded)
    params = {"ranks": [1, 2], "formats": ["fp16"]}
    cells = [SweepCell.make("fig_zero3", params, seed=s) for s in (0, 1)]
    report = run_sweep(cells, jobs=2)
    assert report.failed == 0, [o.error for o in report.outcomes]
    inline = registry.run_experiment("fig_zero3", params, seed=0)
    assert report.outcomes[0].result.result_hash == inline.result_hash


# ------------------------------------------------------------ trace merge


def _cell_trace(pid_label: str) -> dict:
    # a minimal per-cell Chrome trace that carries its own process_name
    # metadata, the way repro.obs.Tracer.export writes it
    return {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": pid_label}},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 0, "args": {"name": "cxl-link"}},
            {"name": "step", "ph": "X", "ts": 0, "dur": 5, "pid": 1,
             "tid": 0},
        ]
    }


def test_merge_traces_one_process_name_per_cell_pid(tmp_path):
    import json

    from repro.experiments.executor import merge_chrome_traces

    for stem in ("cell-a", "cell-b"):
        (tmp_path / f"{stem}.json").write_text(
            json.dumps(_cell_trace("repro"))
        )
    out = merge_chrome_traces(
        [tmp_path / "cell-a.json", tmp_path / "cell-b.json"],
        tmp_path / "merged.json",
    )
    merged = json.loads((tmp_path / "merged.json").read_text())
    assert out == str(tmp_path / "merged.json")
    events = merged["traceEvents"]
    names = [e for e in events if e.get("ph") == "M"
             and e["name"] == "process_name"]
    # regression: the inputs' own process_name events were re-emitted
    # after the synthesized ones, overwriting every cell's label with
    # the same "repro" string in the trace viewer
    pids = {e["pid"] for e in events}
    assert len(names) == len(pids) == 2  # exactly one label per pid
    assert {e["args"]["name"] for e in names} == {"cell-a:1", "cell-b:1"}
    # thread_name metadata is per-pid and must survive the merge
    threads = [e for e in events if e.get("ph") == "M"
               and e["name"] == "thread_name"]
    assert len(threads) == 2
    assert {e["pid"] for e in threads} == pids


# ------------------------------------------------------- cache tmp orphans


def test_cache_clear_removes_tmp_orphans(tmp_path):
    cache = ResultCache(root=tmp_path)
    registry.run_experiment("models", cache=cache)
    entry = next(tmp_path.rglob("*.json"))
    # a writer killed between mkstemp and os.replace leaves this behind
    orphan = entry.parent / f"{entry.name}.tmp.dead1234"
    orphan.write_text("{partial")
    assert cache.clear() >= 2  # the entry and the orphan
    assert not orphan.exists()
    assert not any(tmp_path.rglob("*.json"))
    assert not any(tmp_path.rglob("*.tmp.*"))


# ------------------------------------------------------ same_trend symmetry


def _curve(start: float, end: float, n: int = 24) -> list[float]:
    return list(np.linspace(start, end, n))


def test_same_trend_rejects_rising_curves_symmetrically():
    falling, rising = _curve(2.0, 1.0), _curve(1.0, 2.0)
    # regression: the old check applied the 1.05 tolerance asymmetrically,
    # so a rising curve on one side slipped through while the mirror image
    # was rejected.  Both directions must now fail.
    assert not Fig10Result(falling, rising, act_aft_steps=5).same_trend
    assert not Fig10Result(rising, falling, act_aft_steps=5).same_trend
    assert Fig10Result(falling, list(falling), act_aft_steps=5).same_trend


def test_same_trend_tolerance_is_symmetric():
    flat = _curve(1.0, 1.0)
    slightly_up = _curve(1.0, 1.04)  # inside the 5% tolerance
    too_far_up = _curve(1.0, 1.2)
    assert Fig10Result(flat, slightly_up, act_aft_steps=5).same_trend
    assert Fig10Result(slightly_up, flat, act_aft_steps=5).same_trend
    assert not Fig10Result(flat, too_far_up, act_aft_steps=5).same_trend
    assert not Fig10Result(too_far_up, flat, act_aft_steps=5).same_trend


# --------------------------------------------------- checkpointing


def test_checkpoint_kill_mid_save_keeps_previous(tmp_path, monkeypatch):
    """A fine-tune killed in the atomic rename of a checkpoint keeps the
    previous checkpoint whole and leaves no temp file behind."""
    from repro.experiments import runner
    from repro.experiments.runner import finetune, pretrained_lm
    from repro.offload import TrainerMode
    from repro.state import checkpoint as ckpt_mod
    from repro.state import load_state

    setup = pretrained_lm(seed=3, pretrain_steps=4, finetune_batches=8)
    path = tmp_path / "ft.teco-ckpt"
    monkeypatch.setattr(runner, "CHECKPOINT_EVERY", 3)
    replace = os.replace
    saved = []

    # the step-3 checkpoint lands; a kill hits the step-6 one at the
    # instant of its rename, so its temp file is discarded
    def doomed_replace(src, dst):
        if saved:
            raise OSError("killed mid-save")
        replace(src, dst)
        saved.append(Path(dst).read_bytes())

    monkeypatch.setattr(ckpt_mod.os, "replace", doomed_replace)
    with pytest.raises(OSError, match="killed mid-save"):
        finetune(setup, TrainerMode.TECO_REDUCTION, checkpoint_path=path)
    monkeypatch.undo()

    assert path.read_bytes() == saved[0]  # previous checkpoint untouched
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no litter
    assert load_state(path)[0]["step_count"] == 3


def _interrupt_after(monkeypatch, n_steps):
    """Make the ``n_steps + 1``-th trainer step raise, as a kill would."""
    from repro.offload import OffloadTrainer

    step = OffloadTrainer.step
    calls = []

    def doomed_step(self, *args, **kwargs):
        calls.append(None)
        if len(calls) > n_steps:
            raise KeyboardInterrupt("killed mid-run")
        return step(self, *args, **kwargs)

    monkeypatch.setattr(OffloadTrainer, "step", doomed_step)


def test_finetune_checkpoints_resume_bit_exactly(tmp_path, monkeypatch):
    from repro.experiments import runner
    from repro.experiments.runner import finetune, pretrained_lm
    from repro.offload import TrainerMode

    setup = pretrained_lm(seed=3, pretrain_steps=4, finetune_batches=8)
    plain = finetune(setup, TrainerMode.TECO_REDUCTION)
    path = tmp_path / "ft.teco-ckpt"
    monkeypatch.setattr(runner, "CHECKPOINT_EVERY", 3)
    with monkeypatch.context() as patch:
        _interrupt_after(patch, 7)
        with pytest.raises(KeyboardInterrupt):
            finetune(setup, TrainerMode.TECO_REDUCTION, checkpoint_path=path)
    from repro.state import load_state

    assert load_state(path)[0]["step_count"] == 6  # the last multiple of 3
    resumed = finetune(setup, TrainerMode.TECO_REDUCTION, checkpoint_path=path)
    assert resumed.step_count == 8
    assert resumed.loss_curve == plain.loss_curve
    # the run checkpointed after its last step: a rerun trains nothing
    assert load_state(path)[0]["step_count"] == 8
    _interrupt_after(monkeypatch, 0)
    again = finetune(setup, TrainerMode.TECO_REDUCTION, checkpoint_path=path)
    assert again.loss_curve == plain.loss_curve


@pytest.mark.slow
def test_fig10_checkpoint_dir_writes_and_resumes(tmp_path, monkeypatch):
    """``RunContext.checkpoint_dir`` makes fig10 write, reuse and resume
    its two fine-tuning checkpoints without changing its rows."""
    from repro.experiments import runner

    params = {"n_steps": 8, "act_aft_steps": 2}
    fresh = registry.run_experiment("fig10", params)

    def run(ckpt_dir):
        ctx = RunContext(checkpoint_dir=str(ckpt_dir))
        return registry.run_experiment("fig10", params, ctx=ctx)

    first = run(tmp_path / "a")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 2
    assert fnmatch(names[0], "fig10-gpt2-baseline-*.teco-ckpt")
    assert fnmatch(names[1], "fig10-gpt2-teco-*.teco-ckpt")
    assert run(tmp_path / "a").result_hash == first.result_hash
    assert first.result_hash == fresh.result_hash

    # The baseline run is the trunk: after its 2 steps before DBA
    # activation the TECO run forks off.  Kill the TECO run after 5 of
    # its 8 steps; it has a step-3 checkpoint, and the resumed run
    # matches the uninterrupted curves.
    monkeypatch.setattr(runner, "CHECKPOINT_EVERY", 3)
    with monkeypatch.context() as patch:
        _interrupt_after(patch, 2 + 3)
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path / "b")
    from repro.state import load_state

    (teco,) = (tmp_path / "b").glob("fig10-gpt2-teco-*.teco-ckpt")
    assert load_state(teco)[0]["step_count"] == 3
    assert run(tmp_path / "b").rows == fresh.rows


@pytest.mark.slow
def test_checkpoint_dir_never_resumes_another_cells_run(tmp_path):
    """Cells sharing one checkpoint directory keep separate checkpoints:
    a rerun with another seed or parameter computes its own rows instead
    of returning the finished run of the first cell."""
    ctx = RunContext(checkpoint_dir=str(tmp_path))
    cases = [
        ("fig10", {"n_steps": 6, "act_aft_steps": 2}, 0),
        ("fig10", {"n_steps": 6, "act_aft_steps": 2}, 1),
        ("fig10", {"n_steps": 6, "act_aft_steps": 4}, 1),
        ("fig13", {"sweep": (2,), "total_steps": 4}, 0),
        ("fig13", {"sweep": (2,), "total_steps": 4}, 1),
    ]
    for name, params, seed in cases:
        shared = registry.run_experiment(name, params, seed=seed, ctx=ctx)
        alone = registry.run_experiment(name, params, seed=seed)
        assert shared.rows == alone.rows, (name, params, seed)
    assert len(list(tmp_path.glob("fig10-gpt2-*.teco-ckpt"))) == 6
    assert len(list(tmp_path.glob("fig13-act2-*.teco-ckpt"))) == 2


# --------------------------------------------------- pretrained memo store


def test_pretrained_store_memoizes_and_rebuilds_bit_exact():
    from repro.experiments import pretrained
    from repro.experiments.runner import pretrained_lm

    pretrained.clear()
    pretrained.stats().reset()
    args = dict(seed=11, pretrain_steps=4, finetune_batches=4)
    first = pretrained_lm(**args)
    again = pretrained_lm(**args)
    assert again is first  # shared, not re-pre-trained
    stats = pretrained.stats()
    assert stats.misses == 1 and stats.hits == 1
    pretrained.clear()
    rebuilt = pretrained_lm(**args)
    assert rebuilt is not first
    for key in first.state:
        np.testing.assert_array_equal(rebuilt.state[key], first.state[key])
    other = pretrained_lm(seed=12, pretrain_steps=4, finetune_batches=4)
    assert other is not rebuilt
    pretrained.clear()


# ----------------------------------------------------------------- report


def test_report_runs_subset_through_cache(tmp_path):
    from repro.experiments.report import generate_report

    cache = ResultCache(root=tmp_path / "cache")
    out = tmp_path / "rep"
    rendered = generate_report(out, experiments=["models", "dpu"], cache=cache)
    assert set(rendered) == {"models", "dpu"}
    assert (out / "report.md").exists()
    assert (out / "results.json").exists()
    # second generation is fully served from the cache
    generate_report(out, experiments=["models", "dpu"], cache=cache)
    assert cache.stats.hits == 2
    with pytest.raises(KeyError):
        generate_report(out, experiments=["not-real"], cache=cache)
