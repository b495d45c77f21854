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


def test_sweep_grid_matches_the_service():
    """``repro sweep`` and ``POST /jobs`` axes build the same cells."""
    import argparse

    from repro.cli import _sweep_cells
    from repro.service.protocol import parse_sweep_spec

    def both(name, sets, seeds, sweep, seed_list):
        args = argparse.Namespace(set=sets, seeds=seeds)
        cli = _sweep_cells(registry.get_spec(name), args)
        service, _ = parse_sweep_spec(
            {"experiment": name, "sweep": sweep, "seeds": seed_list}
        )
        return cli, service

    cli, service = both(
        "table6", ["batch=2,4"], "0,1", {"batch": [2, 4]}, [0, 1]
    )
    assert cli == service
    assert [(c.params_dict["batch"], c.seed) for c in cli] == [
        (2, 0), (2, 1), (4, 0), (4, 1),
    ]
    # A tuple-typed param is one point, never swept.
    cli, service = both("fig13", ["sweep=0,30"], None, {"sweep": [0, 30]}, [0])
    assert cli == service
    assert [c.params_dict for c in cli] == [{"sweep": [0, 30]}]
