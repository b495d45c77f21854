"""Self-tests of the end-to-end benchmark (``PYTHONPATH=src pytest benchmarks/e2e -q``).

The child smoke runs every workload shrunk by in-code parameter
overrides, so the whole file stays well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

#: Per-workload parameter overrides that keep each repetition ~1 s.
TINY = {
    "finetune-dba": {"fig13": {"sweep": [0, 4], "total_steps": 4}},
    "fabric-contention": {
        "fig_fabric": {"nodes": [1], "tenants": [1, 2], "policies": ["fair"]}
    },
    "fabric-reduce": {
        "fig_aggregation": {"ranks": [2], "policies": ["fair"], "n_steps": 4}
    },
    "paper-sweep": {
        "granularity": {"model": "bert-base-uncased"},
        "fig2": {"n_steps": 4},
        "fig_zero3": {"ranks": [1, 2], "formats": ["fp32"]},
        "lammps": {"n_steps": 5},
        "overheads": {"n_lines": 1024},
    },
}

#: A seed with no recorded reference: repetitions are checked against
#: each other and against the workload invariants.
SEED = 5


def test_quartiles_and_spread():
    values = [float(v) for v in range(1, 11)]
    assert run.quartiles(values) == (2.75, 5.5, 8.25)
    assert run.rel_spread(values) == pytest.approx(5.5 / 5.5)
    assert run.rel_spread([3.0]) == 0.0
    assert run.rel_spread([2.0, 2.0, 2.0]) == 0.0


def _span(sid, parent, ts, end, name="x"):
    return {"id": sid, "parent": parent, "ts": ts, "dur": end - ts, "name": name}


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps its sibling: union is [1, 5]
        _span(3, 1, 1.5, 2.0),
    ]
    assert layers.self_times(spans) == pytest.approx([6.0, 1.5, 3.0, 0.5])


def test_self_time_disjoint_siblings():
    spans = [_span(0, -1, 0.0, 10.0), _span(1, 0, 0.0, 2.0), _span(2, 0, 5.0, 6.0)]
    assert layers.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_tracer_spans_and_counters_round_trip(tmp_path):
    lt = layers.LayerTracer(rep=3)
    inner = lt.span("tensor.gelu", lambda: None)
    counted = lt.count("tensor.tensors_created", lambda: None)

    def body():
        for _ in range(4):
            inner()
            counted()

    lt.span(layers.ROOT, body)()
    path = tmp_path / "t.json"
    lt.dump(str(path))
    summary = layers.summarize([layers.load_events(str(path))])
    assert summary["spans"]["tensor.gelu"]["calls"] == 4
    root = summary["spans"][layers.ROOT]
    gelu = summary["spans"]["tensor.gelu"]
    assert root["self_s"] == pytest.approx(root["total_s"] - gelu["total_s"])
    assert summary["counters"]["tensor.tensors_created"] == 4
    metrics = layers.layer_metrics(summary)
    assert metrics["tensor.gelu_calls"] == 4
    assert 0.0 < metrics["layers.coverage_frac"] < 1.0


@pytest.mark.parametrize(
    "a, b, better, label",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "improved"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
        # spread far above the bound and the sets overlap: unresolved
        ([6.0, 10.0, 14.0, 10.0], [7.0, 11.0, 15.0, 11.0], "lower", "unresolved"),
        # wide spread, but every B run beats every A run by more than it:
        # resolved, the same way in both directions
        ([20.0, 26.0, 32.0, 26.0], [10.0, 13.0, 16.0, 13.0], "lower", "improved"),
        ([10.0, 13.0, 16.0, 13.0], [20.0, 26.0, 32.0, 26.0], "lower", "worse"),
        # wide spread, every B run worse (or better) than every A run, but
        # the medians differ by less than the spread: unresolved
        ([8.0, 9.0, 10.0, 11.0, 12.0], [12.1, 12.2, 12.3, 12.4, 30.0], "lower", "unresolved"),
        ([12.1, 12.2, 12.3, 12.4, 30.0], [8.0, 9.0, 10.0, 11.0, 12.0], "lower", "unresolved"),
    ],
)
def test_compare_labels(a, b, better, label):
    assert run.compare_label(a, b, better, bound=0.05) == label


def test_compare_noise_floor_above_bound():
    a, b = [10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0]  # +20 %, tight sets
    assert run.compare_label(a, b, "lower", bound=0.1) == "worse"
    assert run.compare_label(a, b, "lower", bound=0.1, noise=0.3) == "unresolved"
    assert run.compare_label(b, a, "lower", bound=0.1, noise=0.3) == "unresolved"
    assert run.compare_label(a, b, "lower", bound=0.1, noise=0.15) == "worse"


@pytest.mark.parametrize(
    "first, second",
    [(a, b) for a in ("set1", "set2", "set3") for b in ("set1", "set2", "set3") if a != b],
)
def test_committed_baselines_agree_both_ways(first, second):
    """Run sets of one commit, measured in different host phases (set 2's
    set-up medians are 25-31 % below set 1's, set 3's are 54-82 % above
    set 2's), never read worse or improved against each other."""
    bench = run.load_benchmark()
    rows = run.compare_sets(
        run.BASELINES / f"{first}.json", run.BASELINES / f"{second}.json", bench
    )
    labels = {(row[0], row[1]): row[-1] for row in rows}
    assert "worse" not in labels.values()
    assert "improved" not in labels.values()
    if {first, second} == {"set1", "set2"}:
        for wl in ("finetune-dba", "fabric-contention", "fabric-reduce"):
            assert labels[("setup_s", wl)] == "unresolved"


def test_compare_failed_frac_is_absolute():
    assert run.compare_label([0.0, 0.0], [0.0, 0.0], "lower", 0.0, absolute=True) == "unchanged"
    assert run.compare_label([0.0, 0.0], [0.0, 0.01], "lower", 0.0, absolute=True) == "worse"


def test_check_ops_counts_hash_mismatch_and_dead_child():
    reps = [
        {"ops": [{"op": "fig13", "hash": "a" * 64, "error": None}]},
        {"ops": [{"op": "fig13", "hash": "b" * 64, "error": None}]},
        {"error": "child exited 1"},
    ]
    attempted, failed, errors = run.check_ops(reps, None)
    assert (attempted, failed) == (3, 2)
    attempted, failed, _ = run.check_ops(reps[:1], {"fig13": "a" * 64})
    assert (attempted, failed) == (1, 0)


def test_forced_hash_mismatch_shows_in_failed_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "load_reference", lambda: {
        "fabric-contention": {str(SEED): {"fig_fabric": "0" * 64}}
    })
    record = run.measure(
        "fabric-contention", SEED, 0.1, False, tmp_path, TINY["fabric-contention"]
    )
    assert record["attempted"] >= 2
    assert record["failed"] == record["attempted"]
    assert "result hash" in record["errors"][0]


@pytest.mark.parametrize(
    "workload, counter",
    [
        ("finetune-dba", "tensor.gelu_calls"),
        ("fabric-contention", "sim.events"),
        ("fabric-reduce", "interconnect.wire_roundtrip_calls"),
        # cells run in forked sweep workers, one trace file each
        ("paper-sweep", "trace.replay_calls"),
    ],
)
def test_child_smoke_every_metric_present(tmp_path, workload, counter):
    """A traced run: untraced repetitions give the end-to-end metrics,
    traced ones the per-layer metrics and a valid Chrome trace."""
    from repro.obs import validate_chrome_trace

    bench = run.load_benchmark()
    record = run.measure(workload, SEED, 0.1, True, tmp_path, TINY[workload])
    assert record["failed"] == 0, record["errors"]
    e2e = run.summarize_run({**record, "trace": False}, bench)
    for m in bench["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
        assert e2e[m["name"]]["value"] > 0
    per_layer = run.summarize_run(record, bench)
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
    assert per_layer["layers.coverage_frac"]["value"] > 0.5
    assert per_layer[counter]["value"] > 0
    trace = json.loads(Path(record["layers"]["trace_file"]).read_text())
    assert validate_chrome_trace(trace) == []
    line = json.loads(run.result_line(record, per_layer))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def _porcelain() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain", "-uall"],
        cwd=run.REPO, capture_output=True, text=True, check=True,
    ).stdout


def test_run_leaves_git_status_unchanged():
    before = _porcelain()
    record = run.measure(
        "fabric-contention", SEED, 0.1, False, run.DEFAULT_OUT, TINY["fabric-contention"]
    )
    assert record["failed"] == 0
    assert _porcelain() == before
