"""Tests for the model zoo and spec arithmetic."""

import numpy as np
import pytest

from repro.models import (
    MODEL_REGISTRY,
    ModelFamily,
    TinyProxyConfig,
    evaluation_models,
    get_model,
    gpt2_scaling_series,
    make_tiny_proxy,
)
from repro.models.specs import ModelSpec
from repro.utils.units import MB


class TestRegistry:
    def test_table3_param_counts(self):
        expected = {
            "gpt2": 122_000_000,
            "albert-xxlarge-v1": 223_000_000,
            "bert-large-cased": 334_000_000,
            "t5-large": 737_000_000,
            "gcnii": 156_000_000,
        }
        for name, count in expected.items():
            assert get_model(name).stored_params == count

    def test_table3_giant_cache_sizes(self):
        expected = {
            "gpt2": 324,
            "albert-xxlarge-v1": 547,
            "bert-large-cased": 817,
            "t5-large": 2069,
            "gcnii": 400,
        }
        for name, mb in expected.items():
            assert get_model(name).giant_cache_bytes == mb * MB

    def test_table3_architecture(self):
        bert = get_model("bert-large-cased")
        assert (bert.n_layers, bert.hidden, bert.n_heads) == (24, 1024, 12)
        t5 = get_model("t5-large")
        assert (t5.n_layers, t5.hidden) == (48, 1024)
        gcnii = get_model("gcnii")
        assert (gcnii.n_layers, gcnii.hidden) == (64, 1560)

    def test_evaluation_order(self):
        names = [m.name for m in evaluation_models()]
        assert names == [
            "gpt2",
            "albert-xxlarge-v1",
            "bert-large-cased",
            "t5-large",
            "gcnii",
        ]

    def test_scaling_series(self):
        series = gpt2_scaling_series()
        counts = [m.stored_params for m in series]
        assert counts == sorted(counts)
        assert series[-1].stored_params == 11_000_000_000

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("gpt5")

    def test_gcnii_param_count_matches_architecture(self):
        g = get_model("gcnii")
        assert g.compute_params == pytest.approx(
            g.stored_params, rel=0.01, abs=0
        )


class TestSpecArithmetic:
    def test_albert_compute_intensity_dominates(self):
        """The structural Albert anomaly: highest FLOPs per transferred
        byte among the transformer workloads."""
        intensities = {
            m.name: m.compute_intensity
            for m in evaluation_models()
            if m.family is not ModelFamily.GNN
        }
        assert max(intensities, key=intensities.get) == "albert-xxlarge-v1"

    def test_flops_scale_with_batch(self):
        bert = get_model("bert-large-cased")
        assert bert.forward_flops(8) == pytest.approx(
            2 * bert.forward_flops(4)
        )
        assert bert.backward_flops(4) == pytest.approx(
            2 * bert.forward_flops(4)
        )

    def test_gnn_batch_independent(self):
        g = get_model("gcnii")
        assert g.tokens_per_step(1) == g.tokens_per_step(16) == 251

    def test_byte_volumes(self):
        bert = get_model("bert-large-cased")
        assert bert.param_bytes == bert.stored_params * 4
        assert bert.optimizer_state_bytes == bert.stored_params * 8

    def test_summary_row(self):
        row = get_model("gpt2").summary_row()
        assert row[0] == "gpt2" and "122M" in row

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="x",
                family=ModelFamily.DECODER,
                stored_params=0,
                n_layers=1,
                hidden=8,
                n_heads=1,
                seq_len=8,
                dataset="d",
                task="t",
                metric="m",
                giant_cache_bytes=1,
                compute_params=1,
            )
        with pytest.raises(ValueError):
            ModelSpec(
                name="g",
                family=ModelFamily.GNN,
                stored_params=10,
                n_layers=1,
                hidden=8,
                n_heads=0,
                seq_len=0,
                dataset="d",
                task="t",
                metric="m",
                giant_cache_bytes=1,
                compute_params=1,
                graph_nodes=0,
            )

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            get_model("gpt2").tokens_per_step(0)


class TestTinyProxies:
    def test_every_family_builds(self):
        rng = np.random.default_rng(0)
        for spec in evaluation_models():
            model = make_tiny_proxy(spec, rng)
            assert model.num_parameters() > 0

    def test_albert_proxy_shares_layers(self):
        rng = np.random.default_rng(1)
        albert = make_tiny_proxy(get_model("albert-xxlarge-v1"), rng)
        gpt2ish = make_tiny_proxy(get_model("bert-large-cased"), rng)
        assert albert.num_parameters() < gpt2ish.num_parameters()

    def test_custom_config(self):
        cfg = TinyProxyConfig(dim=16, n_heads=4)
        model = make_tiny_proxy(
            get_model("gpt2"), np.random.default_rng(2), cfg
        )
        out = model(np.zeros((1, 4), dtype=int))
        assert out.shape == (1, 4, cfg.vocab)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TinyProxyConfig(dim=10, n_heads=3)
