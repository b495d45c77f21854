"""Tests for activation checkpointing in the memory model."""

import pytest

from repro.models import get_model
from repro.offload import MemoryModel


class TestActivationCheckpointing:
    def test_reduces_activation_footprint(self):
        spec = get_model("t5-large")
        plain = MemoryModel()
        ckpt = MemoryModel(activation_checkpointing=True)
        assert ckpt.activation_bytes(spec, 8) < 0.3 * plain.activation_bytes(
            spec, 8
        )

    def test_enables_larger_batches(self):
        spec = get_model("t5-large")
        plain = MemoryModel(mixed_precision=False)
        ckpt = MemoryModel(mixed_precision=False, activation_checkpointing=True)
        # The paper's OOM case fits once activations are checkpointed.
        assert not plain.gpu_budget(spec, 16, seq_len=512).fits
        assert ckpt.gpu_budget(spec, 16, seq_len=512).fits

    def test_costs_backward_flops(self):
        assert MemoryModel().recompute_backward_overhead == 0.0
        assert MemoryModel(
            activation_checkpointing=True
        ).recompute_backward_overhead == pytest.approx(1 / 3)

    def test_gnn_unaffected_shape(self):
        """Full-graph GNN activations follow the same reduction rule."""
        spec = get_model("gcnii")
        plain = MemoryModel()
        # GNN branch returns before checkpointing applies; footprint equal.
        ckpt = MemoryModel(activation_checkpointing=True)
        assert ckpt.activation_bytes(spec, 1) == plain.activation_bytes(spec, 1)
