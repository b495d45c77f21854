"""Bench ablation — transfer granularity (coarse vs cache-line streams)."""

from repro.experiments.ablation_granularity import (
    render_granularity,
    run_granularity,
)


def test_granularity_ablation(run_once, benchmark):
    rows = run_once(run_granularity)
    print()
    print(render_granularity(rows))
    stream_rows = [r for r in rows if r["side"] == "stream"]
    benchmark.extra_info["stream"] = [
        {k: r[k] for k in ("granularity", "exposed", "overlap")}
        for r in stream_rows
    ]
    fine = stream_rows[0]
    coarse = stream_rows[-1]
    # The paper's core insight: fine-grained streaming overlaps, the
    # whole-tensor transfer exposes everything.
    assert fine["overlap"] > 0.5
    assert coarse["overlap"] < 0.05
    assert fine["exposed"] < 0.5 * coarse["exposed"]
