"""Tests for the hardware timing model and DES engines."""

import pytest

from repro.coherence.home_agent import CoherenceMode
from repro.models import evaluation_models, get_model, gpt2_scaling_series
from repro.offload import (
    HardwareParams,
    StepBreakdown,
    SystemKind,
    TECOEngine,
    ZeROOffloadEngine,
    simulate_system,
)


@pytest.fixture(scope="module")
def bert():
    return get_model("bert-large-cased")


@pytest.fixture(scope="module")
def hw():
    return HardwareParams.paper_default()


class TestHardwareParams:
    def test_efficiency_rises_with_batch(self, bert, hw):
        effs = [hw.gpu_efficiency(bert, b) for b in (1, 4, 16, 64)]
        assert effs == sorted(effs)
        assert all(0 < e <= hw.gpu_max_efficiency for e in effs)

    def test_wider_models_utilize_better(self, hw):
        albert = get_model("albert-xxlarge-v1")
        bert = get_model("bert-large-cased")
        assert hw.gpu_efficiency(albert, 4) > hw.gpu_efficiency(bert, 4)

    def test_backward_is_twice_forward(self, bert, hw):
        assert hw.backward_time(bert, 4) == pytest.approx(
            2 * hw.forward_time(bert, 4)
        )

    def test_adam_time_scales_with_params(self, hw):
        small = get_model("gpt2")
        big = get_model("t5-large")
        ratio = hw.adam_time(big) / hw.adam_time(small)
        assert ratio == pytest.approx(
            big.stored_params / small.stored_params, rel=1e-6, abs=0
        )

    def test_dba_stream_cheaper(self, hw):
        full = hw.cxl_stream_time(1 << 20, dirty_bytes=4)
        half = hw.cxl_stream_time(1 << 20, dirty_bytes=2)
        assert half < full

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HardwareParams(gpu_peak_flops=0)
        with pytest.raises(ValueError):
            HardwareParams(gpu_max_efficiency=2.0)


class TestStepBreakdown:
    def test_totals(self):
        bd = StepBreakdown(1.0, 2.0, 0.5, 0.1, 0.4, 0.3)
        assert bd.forward_backward == 3.0
        assert bd.communication_exposed == pytest.approx(0.8)
        assert bd.total == pytest.approx(4.3)
        assert bd.communication_fraction == pytest.approx(0.8 / 4.3)

    def test_speedup(self):
        slow = StepBreakdown(1, 2, 1, 0.1, 0.4, 1)
        fast = StepBreakdown(1, 2, 0, 0.1, 0.4, 0)
        assert fast.speedup_over(slow) == pytest.approx(5.5 / 3.5)

    def test_comm_reduction(self):
        slow = StepBreakdown(1, 2, 1, 0.1, 0.4, 1)
        fast = StepBreakdown(1, 2, 0.1, 0.1, 0.4, 0)
        assert fast.comm_overhead_reduction_vs(slow) == pytest.approx(0.95)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StepBreakdown(-1, 0, 0, 0, 0, 0)

    def test_report_renders(self):
        bd = StepBreakdown(1, 2, 0.5, 0.1, 0.4, 0.3)
        out = bd.report("x")
        assert "forward-backward" in out and "comm fraction" in out


class TestZeROOffloadEngine:
    def test_table1_fraction_shape(self, bert):
        """Exposed-communication fraction decreases with batch and stays in
        the Table I band (roughly 25-50%)."""
        fracs = [
            ZeROOffloadEngine(bert, b).simulate_step().communication_fraction
            for b in (4, 8, 16, 20)
        ]
        assert fracs == sorted(fracs, reverse=True)
        assert 0.35 < fracs[0] < 0.55  # paper: 42.2%
        assert 0.20 < fracs[3] < 0.36  # paper: 25.95%

    def test_transfers_fully_exposed(self, bert, hw):
        bd = ZeROOffloadEngine(bert, 4).simulate_step()
        # synchronous flushes: exposed ~ raw transfer time (+DMA setup)
        assert bd.grad_transfer_exposed >= bd.grad_transfer_raw * 0.95
        assert bd.param_transfer_exposed >= bd.param_transfer_raw * 0.95

    def test_dpu_hides_communication_at_large_batch(self, bert):
        plain = ZeROOffloadEngine(bert, 32).simulate_step()
        dpu = ZeROOffloadEngine(bert, 32, dpu=True).simulate_step()
        assert dpu.communication_exposed < plain.communication_exposed

    def test_dpu_ineffective_at_small_batch(self, bert):
        """Small batch -> small GPU window -> DPU cannot hide everything."""
        dpu = ZeROOffloadEngine(bert, 1, dpu=True).simulate_step()
        assert dpu.communication_exposed > 0

    def test_invalid_batch(self, bert):
        with pytest.raises(ValueError):
            ZeROOffloadEngine(bert, 0)


class TestTECOEngine:
    def test_param_transfer_hidden_with_dba(self, bert):
        """Figure 12: 'When applying DBA, the transfer time is completely
        hidden' for parameters."""
        bd = TECOEngine(bert, 4, dba=True).simulate_step()
        assert bd.param_transfer_exposed < 0.02 * bd.param_transfer_raw + 1e-4

    def test_gradient_hidden_at_batch8(self, bert):
        """Figure 12: gradient transfer completely hidden at batch 8."""
        bd = TECOEngine(bert, 8).simulate_step()
        assert bd.grad_transfer_exposed < 0.05 * bd.grad_transfer_raw + 1e-4

    def test_reduction_beats_cxl(self, bert):
        cxl = TECOEngine(bert, 4, dba=False).simulate_step()
        red = TECOEngine(bert, 4, dba=True).simulate_step()
        assert red.total <= cxl.total
        assert red.wire_bytes < cxl.wire_bytes

    def test_dba_roughly_halves_param_wire_volume(self, bert):
        cxl = TECOEngine(bert, 4, dba=False).simulate_step()
        red = TECOEngine(bert, 4, dba=True).simulate_step()
        saved = cxl.wire_bytes - red.wire_bytes
        assert saved == pytest.approx(bert.param_bytes / 2, rel=0.15, abs=0)

    def test_invalidation_mode_slower(self, bert):
        """Section IV-A2: on-demand transfers raise training time (+56.6%
        avg across models) vs the update protocol."""
        upd = TECOEngine(bert, 4).simulate_step()
        inv = TECOEngine(
            bert, 4, coherence=CoherenceMode.INVALIDATION
        ).simulate_step()
        assert inv.total > upd.total
        assert inv.communication_exposed > upd.communication_exposed

    def test_invalid_dirty_bytes(self, bert):
        with pytest.raises(ValueError):
            TECOEngine(bert, 4, dirty_bytes=0)


class TestPaperShapes:
    """End-to-end shape assertions against the paper's headline results."""

    def test_speedups_within_paper_band(self):
        """Figure 11 / Table IV: TECO-Reduction wins 1.08x-1.82x."""
        for spec in evaluation_models():
            base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, 4)
            red = simulate_system(SystemKind.TECO_REDUCTION, spec, 4)
            s = red.speedup_over(base)
            assert 1.05 < s < 2.0, f"{spec.name}: {s}"

    def test_albert_benefits_least(self):
        """Observation (2) of Section VIII-B: Albert's compute dominates."""
        speedups = {}
        for spec in evaluation_models():
            if spec.name == "gcnii":
                continue
            base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, 4)
            red = simulate_system(SystemKind.TECO_REDUCTION, spec, 4)
            speedups[spec.name] = red.speedup_over(base)
        assert min(speedups, key=speedups.get) == "albert-xxlarge-v1"

    def test_speedup_decreases_with_batch(self):
        for spec in evaluation_models():
            if spec.name == "gcnii":
                continue
            s = []
            for b in (4, 8, 16):
                base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, b)
                red = simulate_system(SystemKind.TECO_REDUCTION, spec, b)
                s.append(red.speedup_over(base))
            assert s == sorted(s, reverse=True), spec.name

    def test_11b_saturates(self):
        """Table VI: the 11B model is compute-bound, smallest speedup."""
        speedups = []
        for spec in gpt2_scaling_series():
            base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, 4)
            red = simulate_system(SystemKind.TECO_REDUCTION, spec, 4)
            speedups.append((spec.name, red.speedup_over(base)))
        names = [n for n, _ in speedups]
        values = dict(speedups)
        assert min(values, key=values.get) == "gpt2-11b"
        assert "gpt2-11b" == names[-1]

    def test_comm_overhead_reduction_band(self):
        """Headline: TECO reduces exposed communication by 93.7% on
        average (up to 100%)."""
        reductions = []
        for spec in evaluation_models():
            base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, 4)
            red = simulate_system(SystemKind.TECO_REDUCTION, spec, 4)
            reductions.append(red.comm_overhead_reduction_vs(base))
        avg = sum(reductions) / len(reductions)
        assert avg > 0.80
        assert max(reductions) > 0.95
