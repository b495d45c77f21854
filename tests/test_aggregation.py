"""Tests for in-fabric gradient aggregation and its wire formats."""

import numpy as np
import pytest

from repro.interconnect.aggregation import (
    FP8_E4M3_MAX,
    EncodedTensor,
    FabricReducer,
    WireFormat,
    aggregate_streams,
    decode_tensor,
    encode_tensor,
    wire_bytes_for,
    wire_roundtrip,
)
from repro.interconnect.fabric import CXLFabric, FabricParams
from repro.models import get_model
from repro.obs import Metrics, Profile, Tracer
from repro.offload.cluster import ClusterEngine
from repro.offload.engines import SystemKind
from repro.offload.parallel import ClusterParams
from repro.sim import Simulator

ALL_FORMATS = ("fp32", "fp16", "bf16", "fp8-e4m3", "int8-dba")


def _grad(n=2000, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * scale).astype(np.float32)


class TestWireFormat:
    def test_parse_roundtrip(self):
        for name in ALL_FORMATS:
            fmt = WireFormat.parse(name)
            assert fmt.value == name
            assert WireFormat.parse(fmt) is fmt

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown wire format"):
            WireFormat.parse("fp4")

    def test_bytes_per_value_ordering(self):
        bpv = {f: WireFormat.parse(f).bytes_per_value for f in ALL_FORMATS}
        assert bpv["fp32"] == 4
        assert bpv["fp16"] == bpv["bf16"] == 2
        assert bpv["fp8-e4m3"] == bpv["int8-dba"] == 1

    def test_wire_bytes(self):
        assert WireFormat.FP32.wire_bytes(1000) == 4000
        assert WireFormat.FP16.wire_bytes(1000) == 2000
        # INT8 carries a 4-byte FP32 scale side channel.
        assert WireFormat.INT8_DBA.wire_bytes(1000) == 1004
        with pytest.raises(ValueError):
            WireFormat.FP32.wire_bytes(-1)

    def test_wire_bytes_for_fp32_sizes(self):
        assert wire_bytes_for(4000, "fp32") == 4000
        assert wire_bytes_for(4000, "bf16") == 2000
        assert wire_bytes_for(4000, "fp8-e4m3") == 1000
        assert wire_bytes_for(4000, "int8-dba") == 1004
        with pytest.raises(ValueError):
            wire_bytes_for(-1, "fp32")


class TestEncodeDecode:
    def test_fp32_round_trip_is_the_bitwise_identity(self):
        """fig_aggregation reuses its baseline run for the ``fp32`` row,
        which holds only if the round-trip changes no bit."""
        sweep = np.arange(0, 2**32, 65_537, dtype=np.uint64).astype(np.uint32)
        specials = np.array(
            [
                0x00000000, 0x80000000,  # +-0
                0x7F800000, 0xFF800000,  # +-inf
                0x7FC00000, 0xFFC00000,  # quiet NaNs
                0x7F800001, 0x7FBFFFFF, 0xFFA5A5A5,  # NaN payloads
                0x00000001, 0x007FFFFF, 0x807FFFFF,  # subnormals
                0x00800000, 0x7F7FFFFF, 0xFF7FFFFF,  # normal extremes
            ],
            dtype=np.uint32,
        )
        words = np.concatenate([sweep, specials])
        out = wire_roundtrip(words.view(np.float32), "fp32")
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.view(np.uint32), words)

    def test_fp32_is_bit_exact(self):
        x = _grad()
        enc = encode_tensor(x, "fp32")
        assert isinstance(enc, EncodedTensor)
        np.testing.assert_array_equal(decode_tensor(enc), x)
        assert enc.wire_bytes == x.nbytes

    def test_fp16_error_bound(self):
        x = _grad()
        y = wire_roundtrip(x, "fp16")
        # IEEE half, round-to-nearest: rel err <= 2^-11 in normal range.
        assert np.max(np.abs(y - x) / np.abs(x)) <= 2**-11

    def test_bf16_error_bound(self):
        x = _grad()
        y = wire_roundtrip(x, "bf16")
        # Mantissa truncation to 7 bits: rel err < 2^-7, one-sided
        # (|decoded| <= |x|).
        assert np.max(np.abs(y - x) / np.abs(x)) < 2**-7
        assert np.all(np.abs(y) <= np.abs(x))

    def test_fp8_error_bound(self):
        x = _grad()
        y = wire_roundtrip(x, "fp8-e4m3")
        normal = np.abs(x) >= 2**-6  # above the subnormal range
        rel = np.abs(y[normal] - x[normal]) / np.abs(x[normal])
        # 3 mantissa bits, nearest rounding: rel err <= 2^-4.
        assert np.max(rel) <= 2**-4

    def test_fp8_worst_cases(self):
        # Saturation at +-448, signed zero, NaN preservation.
        x = np.array(
            [1e9, -1e9, FP8_E4M3_MAX, -FP8_E4M3_MAX, 0.0, np.nan],
            dtype=np.float32,
        )
        y = wire_roundtrip(x, "fp8-e4m3")
        np.testing.assert_array_equal(y[:5], [448.0, -448.0, 448.0, -448.0, 0.0])
        assert np.isnan(y[5])

    def test_fp8_exact_on_codebook_values(self):
        # Every representable value must round-trip exactly.
        grid = np.array(
            [0.5, 1.0, 1.125, 2.0, 3.5, 448.0, -0.875, 2**-6, 2**-9],
            dtype=np.float32,
        )
        np.testing.assert_array_equal(wire_roundtrip(grid, "fp8-e4m3"), grid)

    def test_int8_error_bound_worst_case(self):
        # Symmetric per-tensor INT8: worst case error is scale/2, with
        # scale set by the peak — a single outlier degrades everything.
        x = _grad()
        x[0] = 100.0  # outlier blows up the scale
        y = wire_roundtrip(x, "int8-dba")
        scale = 100.0 / 127.0
        assert np.max(np.abs(y - x)) <= scale / 2 + 1e-6
        # ...and typical values really do see near-worst-case error.
        assert np.max(np.abs(y[1:] - x[1:])) > scale / 10

    def test_int8_rejects_non_finite(self):
        x = _grad()
        x[5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            encode_tensor(x, "int8-dba")

    def test_int8_payload_rides_dba_pack_path(self):
        # The INT8 payload must byte-for-byte equal the quantized lanes.
        from repro.compression.quant import quantize_int8

        x = _grad(256)
        enc = encode_tensor(x, "int8-dba")
        q = quantize_int8(x)
        np.testing.assert_array_equal(
            enc.payload.reshape(-1)[: x.size].view(np.int8), q.values
        )
        assert enc.scale == q.scale

    def test_shape_preserved(self):
        x = _grad(24).reshape(4, 6)
        for fmt in ALL_FORMATS:
            assert wire_roundtrip(x, fmt).shape == (4, 6)

    def test_error_ladder_monotone(self):
        """Wider formats are never less accurate on a generic gradient."""
        x = _grad(5000, seed=3)
        errs = {
            f: float(np.max(np.abs(wire_roundtrip(x, f) - x)))
            for f in ALL_FORMATS
        }
        assert errs["fp32"] == 0.0
        assert errs["fp16"] <= errs["bf16"] <= errs["fp8-e4m3"]


class TestAggregateStreams:
    def test_sum_matches_per_stream_roundtrip(self):
        streams = [_grad(512, seed=s) for s in range(4)]
        total, acct = aggregate_streams(streams, "bf16")
        ref = np.sum([wire_roundtrip(s, "bf16") for s in streams], axis=0)
        np.testing.assert_allclose(total, ref, rtol=0, atol=0)
        assert acct["in_bytes"] == 4 * 1024
        assert acct["out_bytes"] == 1024
        assert acct["n_streams"] == 4

    def test_fp32_is_exact_sum(self):
        streams = [_grad(128, seed=s) for s in range(3)]
        total, _ = aggregate_streams(streams, "fp32")
        np.testing.assert_array_equal(
            total, streams[0] + streams[1] + streams[2]
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_streams([], "fp32")
        with pytest.raises(ValueError, match="share one shape"):
            aggregate_streams([_grad(8), _grad(9)], "fp32")


class TestFabricReducer:
    def _fabric(self, sim, n_ports=4, **kw):
        return CXLFabric(sim, FabricParams(n_ports=n_ports, **kw))

    def test_pool_carries_reduced_not_per_rank_bytes(self):
        sim = Simulator()
        fabric = self._fabric(sim)
        red = fabric.reducer(ranks=range(4))
        n = 16 * 2**20
        ev = red.reduce(n)
        sim.run()
        assert ev.triggered
        assert red.bytes_in == 4 * n
        assert red.bytes_out == n  # the pool boundary sees ONE stream
        stats = fabric.stats
        assert stats.reduce_in_bytes == 4 * n
        assert stats.reduce_out_bytes == n
        # every rank's port accounted its own stream
        for p in range(4):
            assert stats.port_bytes[p] == n

    def test_reduce_wait_accounts_rank_skew(self):
        # All ranks start together but serialize through the shared
        # switch, so early cells wait for the last rank's at the barrier.
        sim = Simulator()
        fabric = self._fabric(sim)
        red = fabric.reducer(ranks=range(4))
        red.reduce(8 * 2**20)
        sim.run()
        assert fabric.stats.reduce_wait > 0.0

    def test_more_ranks_take_longer(self):
        times = []
        for r in (1, 2, 4, 8):
            sim = Simulator()
            fabric = self._fabric(sim, n_ports=8)
            fabric.reducer(ranks=range(r)).reduce(8 * 2**20)
            sim.run()
            times.append(sim.now)
        assert times == sorted(times)
        assert times[0] < times[-1]

    def test_small_transfer_single_cell(self):
        sim = Simulator()
        fabric = self._fabric(sim)
        red = fabric.reducer(ranks=[0, 1])
        red.reduce(1024)  # below MIN_CELL_BYTES
        sim.run()
        assert red.bytes_out == 1024

    def test_spans_and_metrics(self):
        tracer, metrics = Tracer(), Metrics()
        with Profile(tracer, metrics).activate():
            sim = Simulator()
        fabric = self._fabric(sim)
        red = fabric.reducer(ranks=range(4))
        n = 16 * 2**20
        red.reduce(n)
        sim.run()
        names = {s.name for s in tracer.spans if s.cat == "fabric"}
        assert "fabric-reduce" in names
        assert "reduce-wait" in names
        counters = metrics.counters()
        assert counters["fabric.reduce.in_bytes"] == 4 * n
        assert counters["fabric.reduce.out_bytes"] == n

    def test_validation(self):
        sim = Simulator()
        fabric = self._fabric(sim)
        with pytest.raises(ValueError, match="at least one rank"):
            FabricReducer(fabric, [])
        with pytest.raises(ValueError, match="out of range"):
            FabricReducer(fabric, [99])
        with pytest.raises(ValueError, match="tenant"):
            FabricReducer(fabric, [0], tenant=5)
        red = fabric.reducer(ranks=[0])
        with pytest.raises(ValueError, match="non-negative"):
            red.reduce(-1)

    def test_zero_stats_without_reducer(self):
        sim = Simulator()
        fabric = self._fabric(sim)

        def go(sim, link):
            yield link.transmit(2**20)

        sim.process(go(sim, fabric.port(0, 0)))
        sim.run()
        snap = fabric.stats.snapshot()
        assert snap["reduce_in_bytes"] == 0.0
        assert snap["reduce_out_bytes"] == 0.0
        assert snap["reduce_wait"] == 0.0


class TestReduceInFabricEngines:
    @pytest.fixture(scope="class")
    def bert(self):
        return get_model("bert-large-cased")

    @staticmethod
    def _one_job(bert, fmt):
        """One 4-GPU job whose gradients reduce in the fabric."""
        return ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            8,
            ClusterParams(n_gpus=4),
            n_hosts=4,
            n_tenants=1,
            reduce_in_fabric=True,
            grad_wire_format=fmt,
        ).simulate_step()

    def test_wire_bytes_monotone_in_format(self, bert):
        """Acceptance: FP32 > FP16/BF16 > FP8/INT8-DBA wire bytes."""
        wire = {
            fmt: self._one_job(bert, fmt).tenants[0].wire_bytes
            for fmt in ALL_FORMATS
        }
        assert wire["fp32"] > wire["fp16"] == wire["bf16"]
        assert wire["fp16"] > wire["fp8-e4m3"]
        assert wire["fp16"] > wire["int8-dba"]

    def test_low_bit_formats_cut_step_time(self, bert):
        totals = {
            fmt: self._one_job(bert, fmt).makespan
            for fmt in ("fp32", "fp8-e4m3")
        }
        assert totals["fp8-e4m3"] < totals["fp32"]

    def test_cluster_engine_reduce_stats_populated(self, bert):
        eng = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            8,
            ClusterParams(n_gpus=2),
            n_hosts=2,
            n_tenants=2,
            policy="fair",
            reduce_in_fabric=True,
            grad_wire_format="fp16",
        )
        res = eng.simulate_step()
        assert len(res.tenant_reduce_in_bytes) == 2
        # each tenant: 2 ranks x encoded full gradient (FP16 = half).
        expected = bert.gradient_bytes / 2 * 2
        for got in res.tenant_reduce_in_bytes:
            assert got == pytest.approx(expected)
        for got in res.tenant_reduce_out_bytes:
            assert got == pytest.approx(bert.gradient_bytes / 2)
        assert res.reduce_in_bytes == sum(res.tenant_reduce_in_bytes)

    def test_cluster_engine_runs_all_formats_both_kinds(self, bert):
        for kind in (SystemKind.TECO_REDUCTION, SystemKind.ZERO_OFFLOAD):
            for fmt in ALL_FORMATS:
                res = ClusterEngine(
                    kind,
                    bert,
                    4,
                    ClusterParams(n_gpus=2),
                    n_hosts=2,
                    n_tenants=1,
                    reduce_in_fabric=True,
                    grad_wire_format=fmt,
                ).simulate_step()
                assert res.makespan > 0

    def test_cluster_disabled_bit_identical_to_pr6(self, bert):
        """Acceptance: reduce_in_fabric off reproduces the PR 6
        breakdown bit-for-bit (golden values captured pre-change)."""
        res = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            8,
            ClusterParams(n_gpus=2),
            n_hosts=2,
            n_tenants=2,
            policy="fair",
        ).simulate_step()
        t0, t1 = res.tenants
        assert t0.forward == 0.0520240798629888
        assert t0.backward == 0.10404815972597761
        assert t0.grad_transfer_exposed == 0.0007818873693352657
        assert t0.grad_clip == 0.017238709677419355
        assert t0.optimizer == 0.06033548387096843
        assert t0.param_transfer_exposed == 0.0005937321273758733
        assert t0.wire_bytes == 2171000000.0
        assert t0.wire_bytes_per_link == 1085500000.0
        assert t1.grad_transfer_exposed == 0.0007935513599223454
        assert t1.param_transfer_exposed == 0.0005882431906290286
        assert res.tenant_switch_wait == (
            0.010890050506641595,
            0.023887852723260432,
        )
        assert res.tenant_pool_wait == (0.0, 0.0)
        assert res.tenant_bytes == (1085500000.0, 1085500000.0)
        assert res.port_bytes == (1085500000.0, 1085500000.0)
        assert res.tenant_reduce_in_bytes == ()
        assert res.tenant_reduce_out_bytes == ()
        assert res.tenant_reduce_wait == ()


class TestGradTransformHook:
    def _train(self, grad_transform=None, n=6):
        from repro.experiments.runner import finetune, pretrained_lm
        from repro.offload import TrainerMode

        setup = pretrained_lm(seed=0, finetune_batches=n)
        tr = finetune(
            setup,
            TrainerMode.TECO_REDUCTION,
            seed=1,
            grad_transform=grad_transform,
        )
        return [r.loss for r in tr.history], tr

    def test_identity_transform_bit_identical(self):
        base, _ = self._train(None)
        ident, _ = self._train(lambda g: g)
        assert base == ident

    def test_fp32_roundtrip_bit_identical(self):
        base, _ = self._train(None)
        fp32, _ = self._train(lambda g: wire_roundtrip(g, "fp32"))
        assert base == fp32

    def test_low_bit_transform_changes_training(self):
        base, _ = self._train(None)
        int8, _ = self._train(lambda g: wire_roundtrip(g, "int8-dba"))
        assert base != int8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            self._train(lambda g: g[:-1], n=1)
