"""Bench E-HW — regenerate Section VIII-D (hardware + DRAM overheads)."""

from repro.experiments import overheads


def test_overheads(run_once, benchmark):
    rows = run_once(overheads.run_overheads)
    print()
    print(overheads.render_overheads(rows))
    dram = rows[-1]  # the kind="dram" row
    benchmark.extra_info["dram"] = dram
    assert dram["sequential"] > dram["shuffled"] > 1.0
