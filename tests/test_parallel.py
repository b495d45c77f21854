"""Tests for the data-parallel extension."""

import pytest

from repro.experiments.scaling import render_scaling, run_scaling
from repro.interconnect.fabric import PartitionPolicy
from repro.models import get_model
from repro.offload import SystemKind
from repro.offload.cluster import ClusterEngine
from repro.offload.engines import TECOEngine, ZeROOffloadEngine
from repro.offload.parallel import ClusterParams, DataParallelEngine
from repro.offload.zero3 import Zero3Engine


class TestClusterParams:
    def test_ring_time_zero_for_single_gpu(self):
        assert ClusterParams(n_gpus=1).ring_time(1 << 30) == 0.0

    def test_ring_time_scales_with_shards(self):
        c = ClusterParams(n_gpus=4)
        assert c.ring_time(2 << 20) > c.ring_time(1 << 20)

    def test_ring_bus_bytes(self):
        c = ClusterParams(n_gpus=8, collective_latency=0.0)
        t = c.ring_time(1e9)
        expected = 1e9 * 7 / c.collective_bandwidth.bytes_per_second
        assert t == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_ring_algebra_closed_form(self, n):
        """``ring_time`` takes the 1/n *shard* and charges shard*(n-1);
        ``ring_time_for_tensor`` takes the full tensor S and charges the
        textbook S*(n-1)/n — the same bus bytes, two entry points."""
        c = ClusterParams(n_gpus=n)
        tensor = 3e9
        shard = tensor / n
        bw = c.collective_bandwidth.bytes_per_second
        closed_form = c.collective_latency + tensor * (n - 1) / (n * bw)
        assert c.ring_time(shard) == pytest.approx(
            closed_form, rel=1e-12, abs=0
        )
        assert c.ring_time_for_tensor(tensor) == pytest.approx(
            c.ring_time(shard), rel=1e-12, abs=0
        )

    def test_ring_time_for_tensor_validation(self):
        with pytest.raises(ValueError):
            ClusterParams().ring_time_for_tensor(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(n_gpus=0)
        with pytest.raises(ValueError):
            ClusterParams().ring_time(-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("collective_latency", float("nan")),
            ("collective_latency", float("inf")),
            ("n_gpus", 2.0),
            ("n_gpus", True),
            ("collective_bandwidth", 60e9),
            ("collective_bandwidth", None),
        ],
    )
    def test_bad_value_rejected_at_construction(self, field, value):
        """Caught here, not as a ``KeyError`` from a step that never ran."""
        with pytest.raises(ValueError, match=field):
            ClusterParams(**{field: value})


#: engine.parameter -> a factory building the engine with that parameter.
_COUNT_PARAMETERS = {
    "ZeROOffloadEngine.batch": lambda spec, v: ZeROOffloadEngine(spec, v),
    "TECOEngine.batch": lambda spec, v: TECOEngine(spec, v),
    "DataParallelEngine.global_batch": lambda spec, v: DataParallelEngine(
        SystemKind.TECO_REDUCTION, spec, v, ClusterParams(n_gpus=1)
    ),
    "ClusterEngine.global_batch": lambda spec, v: ClusterEngine(
        SystemKind.TECO_REDUCTION, spec, v, ClusterParams(n_gpus=1)
    ),
    "Zero3Engine.prefetch_layers": lambda spec, v: Zero3Engine(
        spec, 8, prefetch_layers=v
    ),
}


def test_zero3_policy_parsed_at_construction():
    """A bad policy fails when the engine is built, not at its first step."""
    spec = get_model("bert-large-cased")
    with pytest.raises(ValueError, match="partition policy"):
        Zero3Engine(spec, 8, policy="bogus")
    engine = Zero3Engine(spec, 8, policy="shared")
    assert engine.policy is PartitionPolicy.SHARED


@pytest.mark.parametrize("value", [True, 1.5, 4.0])
@pytest.mark.parametrize("parameter", sorted(_COUNT_PARAMETERS))
def test_engine_counts_must_be_integers(parameter, value):
    """A ``bool`` or float count is rejected, not run as batch 1 or 2.5."""
    with pytest.raises(ValueError, match="must be an integer"):
        _COUNT_PARAMETERS[parameter](get_model("bert-large-cased"), value)


class TestDataParallelEngine:
    @pytest.fixture(scope="class")
    def bert(self):
        return get_model("bert-large-cased")

    def test_single_gpu_close_to_base_engine(self, bert):
        """With one GPU and no collectives, the DP engine reduces to the
        single-GPU TECO result within the modelling tolerances."""
        from repro.offload import simulate_system

        dp = DataParallelEngine(
            SystemKind.TECO_REDUCTION, bert, 4, ClusterParams(n_gpus=1)
        ).simulate_step()
        single = simulate_system(SystemKind.TECO_REDUCTION, bert, 4)
        assert dp.total == pytest.approx(single.total, rel=0.1, abs=0)

    def test_teco_beats_baseline_at_every_scale(self, bert):
        for n in (1, 2, 4, 8):
            base = DataParallelEngine(
                SystemKind.ZERO_OFFLOAD, bert, 32, ClusterParams(n_gpus=n)
            ).simulate_step()
            red = DataParallelEngine(
                SystemKind.TECO_REDUCTION, bert, 32, ClusterParams(n_gpus=n)
            ).simulate_step()
            assert red.total < base.total, n

    def test_step_time_shrinks_with_gpus_sublinearly(self, bert):
        t1 = DataParallelEngine(
            SystemKind.ZERO_OFFLOAD, bert, 32, ClusterParams(n_gpus=1)
        ).simulate_step().total
        t8 = DataParallelEngine(
            SystemKind.ZERO_OFFLOAD, bert, 32, ClusterParams(n_gpus=8)
        ).simulate_step().total
        assert t8 < t1  # scaling helps
        assert t8 > t1 / 8  # ...but far from linearly (constant CPU work)

    def test_sharding_reduces_per_link_volume(self, bert):
        w1 = DataParallelEngine(
            SystemKind.TECO_REDUCTION, bert, 32, ClusterParams(n_gpus=1)
        ).simulate_step().wire_bytes_per_link
        w4 = DataParallelEngine(
            SystemKind.TECO_REDUCTION, bert, 32, ClusterParams(n_gpus=4)
        ).simulate_step().wire_bytes_per_link
        assert w4 == pytest.approx(w1 / 4, rel=0.05, abs=0)

    @pytest.mark.parametrize(
        "kind",
        [
            SystemKind.TECO_REDUCTION,
            SystemKind.TECO_CXL,
            SystemKind.ZERO_OFFLOAD,
        ],
    )
    def test_wire_bytes_aggregate_over_all_links(self, bert, kind):
        """Regression for the wire-byte accounting bug: ``wire_bytes``
        once reported one GPU's link.  It must now be the cluster-wide
        aggregate (n x per-link), invariant under sharding — and at
        n=1 both fields collapse to the single-GPU engine's volume."""
        from repro.offload import simulate_system

        b1 = DataParallelEngine(
            kind, bert, 32, ClusterParams(n_gpus=1)
        ).simulate_step()
        b4 = DataParallelEngine(
            kind, bert, 32, ClusterParams(n_gpus=4)
        ).simulate_step()
        assert b4.wire_bytes == pytest.approx(
            4 * b4.wire_bytes_per_link, rel=1e-12, abs=0
        )
        # total cluster traffic is sharding-invariant
        assert b4.wire_bytes == pytest.approx(b1.wire_bytes, rel=1e-9, abs=0)
        # n=1: aggregate == per-link == the single-GPU engine's volume
        assert b1.wire_bytes == b1.wire_bytes_per_link
        single = simulate_system(kind, bert, 32)
        assert b1.wire_bytes == pytest.approx(single.wire_bytes, rel=1e-9, abs=0)
        assert single.wire_bytes == pytest.approx(
            single.wire_bytes_per_link, rel=1e-12, abs=0
        )

    def test_batch_validation(self, bert):
        with pytest.raises(ValueError):
            DataParallelEngine(
                SystemKind.ZERO_OFFLOAD, bert, 3, ClusterParams(n_gpus=2)
            )
        with pytest.raises(ValueError):
            DataParallelEngine(
                SystemKind.ZERO_OFFLOAD, bert, 2, ClusterParams(n_gpus=4)
            )


class TestScalingExperiment:
    def test_speedup_band_across_scales(self):
        rows = run_scaling(gpu_counts=(1, 4, 16))
        for r in rows:
            assert 1.1 < r["speedup"] < 1.8

    def test_comm_fraction_stays_significant(self):
        rows = run_scaling(gpu_counts=(1, 16))
        for r in rows:
            assert r["baseline_comm_fraction"] > 0.10

    def test_render(self):
        assert "GPUs" in render_scaling(run_scaling(gpu_counts=(1, 2)))
