"""Golden regression test for the 2x2 cluster step.

``tests/data/golden_cluster_2x2.json`` freezes one fully-featured
:class:`~repro.offload.cluster.ClusterEngine` step — two hosts, two
tenants, in-fabric FP16 reduction, tracer on — as produced at PR 8 time
and committed.  The fixture pins the *cluster-visible contract*: per-
tenant payload/port bytes, reducer byte/wait accounting, switch/pool
queueing, per-tenant step breakdowns, and the pool-queue span census.
Any change to the fabric, reducer, or engine layers that shifts one of
these numbers by more than float noise is caught here before it silently
re-skews every multi-tenant table.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/test_golden_cluster.py --regenerate
"""

import json
import math
from pathlib import Path

import pytest

from repro.models import get_model
from repro.obs import Profile, Tracer
from repro.offload.cluster import ClusterEngine
from repro.offload.engines import SystemKind
from repro.offload.parallel import ClusterParams

FIXTURE = Path(__file__).parent / "data" / "golden_cluster_2x2.json"

#: Frozen configuration — small enough to simulate in well under a
#: second, rich enough to exercise every fabric stage.
MODEL = "bert-large-cased"
GLOBAL_BATCH = 8
N_GPUS = 2
WIRE_FORMAT = "fp16"

REL_TOL = 1e-9


def run_2x2() -> tuple[object, Tracer]:
    """One 2x2 cluster step with the frozen configuration."""
    tracer = Tracer()
    engine = ClusterEngine(
        SystemKind.TECO_REDUCTION,
        get_model(MODEL),
        GLOBAL_BATCH,
        ClusterParams(n_gpus=N_GPUS),
        n_hosts=2,
        n_tenants=2,
        policy="fair",
        reduce_in_fabric=True,
        grad_wire_format=WIRE_FORMAT,
    )
    with Profile(tracer=tracer).activate():
        result = engine.simulate_step()
    return result, tracer


def snapshot() -> dict:
    """The cluster-visible contract as a JSON-stable dict."""
    result, tracer = run_2x2()
    pool_spans = [
        s
        for s in tracer.spans
        if s.name == "pool-queue" and s.cat == "fabric"
    ]
    return {
        "model": MODEL,
        "global_batch": GLOBAL_BATCH,
        "n_gpus": N_GPUS,
        "wire_format": WIRE_FORMAT,
        "makespan": result.makespan,
        "ports": list(result.ports),
        "tenant_bytes": list(result.tenant_bytes),
        "port_bytes": list(result.port_bytes),
        "tenant_switch_wait": list(result.tenant_switch_wait),
        "tenant_pool_wait": list(result.tenant_pool_wait),
        "tenant_reduce_in_bytes": list(result.tenant_reduce_in_bytes),
        "tenant_reduce_out_bytes": list(result.tenant_reduce_out_bytes),
        "tenant_reduce_wait": list(result.tenant_reduce_wait),
        "tenant_totals": [t.total for t in result.tenants],
        "tenant_wire_bytes": [t.wire_bytes for t in result.tenants],
        "pool_queue_spans": len(pool_spans),
        "pool_queue_seconds": sum(s.duration for s in pool_spans),
    }


def assert_matches(got, want, path=""):
    """Recursive compare: exact ints/strs, rel-1e-9 floats."""
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12), (
            f"{path}: {got!r} != frozen {want!r}"
        )
    else:
        assert got == want, f"{path}: {got!r} != frozen {want!r}"


class TestGoldenCluster:
    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        assert FIXTURE.exists(), (
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_cluster.py "
            "--regenerate`"
        )
        return json.loads(FIXTURE.read_text())

    def test_fixture_sanity(self, golden):
        # Both tenants pushed traffic, the reducer halved it (FP16),
        # and the pool stage recorded real queueing.
        assert len(golden["tenant_bytes"]) == 2
        assert min(golden["tenant_bytes"]) > 0
        for tin, tout in zip(
            golden["tenant_reduce_in_bytes"],
            golden["tenant_reduce_out_bytes"],
        ):
            # Two ranks enter per tenant, one reduced stream leaves.
            assert math.isclose(tin, 2 * tout, rel_tol=1e-6)
        assert golden["pool_queue_spans"] > 0
        assert golden["pool_queue_seconds"] > 0
        assert golden["makespan"] > 0

    def test_cluster_step_reproduces_fixture(self, golden):
        assert_matches(snapshot(), golden)

    def test_step_is_deterministic(self):
        # Two in-process runs agree bit-for-bit — the precondition for
        # the frozen fixture being meaningful at all.
        assert snapshot() == snapshot()


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(), indent=2) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        sys.exit("run under pytest, or pass --regenerate")
