"""Bench E-MD — regenerate Section VII (LJ melt generality study)."""

from repro.experiments import lammps


def test_lammps(run_once, benchmark):
    rows = run_once(lammps.run_lammps)
    print()
    print(lammps.render_lammps(rows))
    result = rows[0]
    benchmark.extra_info["result"] = {
        k: result[k]
        for k in ("improvement", "volume_reduction", "cxl_share", "dba_share")
    }
    assert result["cxl_share"] > result["dba_share"]
