"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, LEGACY_EXPERIMENTS, main
from repro.experiments.report import DEFAULT_REPORT_EXPERIMENTS


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
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
        assert required <= set(EXPERIMENTS)
        assert required <= set(LEGACY_EXPERIMENTS)
        # The combined alias is gone: each ablation runs once, by its id.
        assert "ablations" not in EXPERIMENTS
        assert LEGACY_EXPERIMENTS is DEFAULT_REPORT_EXPERIMENTS
