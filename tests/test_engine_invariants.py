"""Property-based invariants of the DES engines and the CPU roofline."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cpu import CPUModel, gem5_avx_cpu
from repro.models import MODEL_REGISTRY, get_model
from repro.offload import HardwareParams, SystemKind, simulate_system

MODELS = [n for n in MODEL_REGISTRY if n != "gpt2-11b"]  # keep runs fast

hw_variants = st.builds(
    lambda eff, sat, peak: dataclasses.replace(
        HardwareParams.paper_default(),
        gpu_max_efficiency=eff,
        gpu_half_sat_u=sat,
        gpu_peak_flops=peak,
    ),
    eff=st.floats(0.05, 0.5),
    sat=st.floats(1.0, 20.0),
    peak=st.floats(20e12, 300e12),
)


class TestEngineInvariants:
    @given(
        model=st.sampled_from(MODELS),
        batch=st.integers(1, 32),
        hw=hw_variants,
    )
    @settings(max_examples=40, deadline=None)
    def test_system_ordering(self, model, batch, hw):
        """Across arbitrary hardware calibrations: compute is identical
        for all systems, communication exposure only improves from
        baseline -> TECO-CXL -> TECO-Reduction, and totals order the
        same way."""
        spec = get_model(model)
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw)
        cxl = simulate_system(SystemKind.TECO_CXL, spec, batch, hw)
        red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw)
        eps = 1e-9
        assert base.compute == pytest.approx(cxl.compute, rel=1e-9, abs=0)
        assert cxl.compute == pytest.approx(red.compute, rel=1e-9, abs=0)
        assert red.communication_exposed <= cxl.communication_exposed + eps
        assert cxl.communication_exposed <= base.communication_exposed + eps
        assert red.total <= cxl.total + eps <= base.total + 2 * eps

    @given(
        model=st.sampled_from(MODELS),
        batch=st.integers(1, 32),
    )
    @settings(max_examples=30, deadline=None)
    def test_exposure_bounded_by_raw_transfer(self, model, batch):
        """Exposure never exceeds the raw serialized transfer time plus
        per-transfer setup overheads."""
        spec = get_model(model)
        base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch)
        setups = 64 * base.wire_bytes / base.wire_bytes  # loose slack unit
        assert (
            base.grad_transfer_exposed
            <= base.grad_transfer_raw * 1.05 + 1e-3
        )
        assert (
            base.param_transfer_exposed
            <= base.param_transfer_raw * 1.05 + 1e-3
        )
        teco = simulate_system(SystemKind.TECO_CXL, spec, batch)
        assert teco.grad_transfer_exposed <= teco.grad_transfer_raw + 1e-6
        assert teco.param_transfer_exposed <= teco.param_transfer_raw + 1e-6

    @given(batch=st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_breakdown_components_nonnegative(self, batch):
        spec = get_model("bert-large-cased")
        for kind in SystemKind:
            bd = simulate_system(kind, spec, batch)
            assert bd.total >= bd.compute >= 0
            assert bd.communication_fraction <= 1.0


class TestCPURoofline:
    def test_adam_is_memory_bound_on_table2_machine(self):
        """The justification for the calibrated cpu_stream_bandwidth: the
        ADAM sweep's arithmetic intensity (12/28 FLOP/byte) sits far below
        the Table II machine's roofline corner (~18 FLOP/byte)."""
        cpu = gem5_avx_cpu()
        assert cpu.adam_is_memory_bound()
        assert cpu.arithmetic_intensity_break_even > 5.0

    def test_sweep_time_matches_calibrated_constant(self):
        """Roofline sweep time equals the HardwareParams figure (both are
        traffic / 155 GB/s in the memory-bound regime)."""
        cpu = gem5_avx_cpu()
        hw = HardwareParams.paper_default()
        bert = get_model("bert-large-cased")
        assert cpu.adam_sweep_time(bert.stored_params) == pytest.approx(
            hw.adam_time(bert), rel=1e-6
        )

    def test_compute_bound_regime_exists(self):
        """A narrow-memory machine flips the sweep to compute-bound."""
        from repro.utils.units import GB, Bandwidth

        slow_cores = CPUModel(
            cores=1, clock_hz=1e9, flops_per_core_cycle=1.0,
            memory_bandwidth=Bandwidth(1000 * GB),
        )
        assert not slow_cores.adam_is_memory_bound()

    def test_validation(self):
        with pytest.raises(ValueError):
            CPUModel(cores=0)
        with pytest.raises(ValueError):
            gem5_avx_cpu().adam_sweep_time(0)
        with pytest.raises(ValueError):
            gem5_avx_cpu().compute_bound_time(-1)
