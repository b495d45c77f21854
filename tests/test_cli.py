"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.report import DEFAULT_REPORT_EXPERIMENTS


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.spec_names():
            assert name in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_fig12(self, capsys):
        assert main(["fig12"]) == 0
        assert "breakdown" in capsys.readouterr().out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        assert "DRAM" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        assert "gpt2-11b" in capsys.readouterr().out

    def test_invalid_experiment(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_registry_complete(self):
        """Every paper table/figure with an experiment id is reachable."""
        required = {
            "table1", "fig2", "fig10", "fig11", "fig12", "table5",
            "table6", "fig13", "table7", "table8", "comm-volume",
            "overheads", "lammps", "invalidation", "dpu", "granularity",
            "interconnect", "seqlen",
        }
        assert required <= set(registry.spec_names())
        assert required <= set(DEFAULT_REPORT_EXPERIMENTS)
        # The combined alias is gone: each ablation runs once, by its id.
        assert "ablations" not in registry.spec_names()


def test_sweep_grid_cells():
    """``repro sweep`` axes × seeds -> cells, seeds varying fastest."""
    import argparse

    from repro.cli import _sweep_cells

    def cells(name, sets, seeds):
        args = argparse.Namespace(set=sets, seeds=seeds)
        return _sweep_cells(registry.get_spec(name), args)

    cli = cells("table6", ["batch=2,4"], "0,1")
    assert [(c.params_dict["batch"], c.seed) for c in cli] == [
        (2, 0), (2, 1), (4, 0), (4, 1),
    ]
    # A tuple-typed param is one point, never swept.
    cli = cells("fig13", ["sweep=0,30"], None)
    assert [c.params_dict for c in cli] == [{"sweep": [0, 30]}]
    assert [c.seed for c in cli] == [0]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "table6", "--seeds", "x"],
        ["sweep", "table6", "--seeds", "0,,1"],
        ["sweep", "table6", "--set", "nokey=1"],
        ["sweep", "table6", "--set", "batch=2,,4"],
        ["sweep", "table6", "--set", "batch"],
        ["sweep", "table6", "--jobs", "-3"],
        ["sweep", "table6", "--jobs", "0"],
        ["all", "--jobs", "0"],
        ["run", "table6", "--set", "nokey=1"],
        ["run", "table6", "--set", "batch=two"],
        ["trace", "table6", "--set", "nokey=1"],
    ],
    ids="_".join,
)
def test_bad_input_is_one_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"repro {argv[0]}: error: ")


def test_bad_input_exit_code_from_the_shell():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "table6", "--set", "nokey=1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(
        "repro sweep: error: --set 'nokey=1': experiment 'table6' has no "
        "parameter 'nokey' (available: "
    )
