"""Tests for the PR 8 workload engines: activation offload, ZeRO-3, KV-cache.

The differential harness of ISSUE 8: each engine's defining scaling law
is asserted against its own baseline configuration —

* activation offload: prefetch overlap strictly reduces the fetch stall
  versus on-demand fetching, and offloading nothing costs nothing;
* ZeRO-3: per-rank shard bytes scale exactly as ``1/ranks`` (ranks >= 2)
  and wire formats compose multiplicatively;
* KV-cache: tokens/s degrades monotonically as residency shrinks, and a
  fully-resident cache fetches zero bytes.
"""

import math

import pytest

from repro.interconnect.aggregation import wire_bytes_for
from repro.interconnect.fabric import CXLFabric, FabricParams
from repro.interconnect.gather import FabricGather
from repro.models import get_model
from repro.obs import Profile, Tracer
from repro.offload.group_offload import (
    ActivationOffloadEngine,
    GroupOffloadPolicy,
)
from repro.offload.kvcache import KVCacheEngine, kv_bytes_per_token
from repro.offload.zero3 import Zero3Engine
from repro.sim import Simulator

SPEC = get_model("bert-large-cased")


# --- GroupOffloadPolicy ----------------------------------------------------
class TestGroupOffloadPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupOffloadPolicy(n_layers=0)
        with pytest.raises(ValueError):
            GroupOffloadPolicy(n_layers=4, group_size=0)
        with pytest.raises(ValueError):
            GroupOffloadPolicy(n_layers=4, prefetch_groups=-1)
        with pytest.raises(ValueError):
            GroupOffloadPolicy(n_layers=4, offload_groups=5)
        with pytest.raises(ValueError):
            GroupOffloadPolicy(n_layers=4, skip_layers=(4,))

    def test_grouping_covers_all_layers_once(self):
        policy = GroupOffloadPolicy(n_layers=10, group_size=3)
        assert policy.n_groups == 4
        layers = [l for g in range(4) for l in policy.group_layers(g)]
        assert layers == list(range(10))
        # Last group is short.
        assert policy.group_layers(3) == (9,)

    def test_offload_groups_and_skips(self):
        policy = GroupOffloadPolicy(
            n_layers=8, group_size=2, offload_groups=2, skip_layers=(1,)
        )
        assert policy.offloaded_layers(0) == (0,)  # layer 1 skipped
        assert policy.offloaded_layers(1) == (2, 3)
        assert policy.offloaded_layers(2) == ()  # beyond offload_groups
        assert policy.total_offloaded_layers == 3

    def test_from_fraction_endpoints(self):
        none = GroupOffloadPolicy.from_fraction(12, 0.0, group_size=2)
        full = GroupOffloadPolicy.from_fraction(12, 1.0, group_size=2)
        assert none.total_offloaded_layers == 0
        assert full.total_offloaded_layers == 12
        with pytest.raises(ValueError):
            GroupOffloadPolicy.from_fraction(12, 1.5)


# --- ActivationOffloadEngine ----------------------------------------------
class TestActivationOffloadEngine:
    def _run(self, prefetch, offload_fraction=1.0, group_size=2):
        policy = GroupOffloadPolicy.from_fraction(
            SPEC.n_layers,
            offload_fraction,
            group_size=group_size,
            prefetch_groups=prefetch,
        )
        return ActivationOffloadEngine(SPEC, 4, policy=policy).simulate_step()

    def test_no_offload_is_free(self):
        result = self._run(prefetch=0, offload_fraction=0.0)
        assert result.offloaded_layers == 0
        assert result.act_wire_bytes == 0.0
        assert result.freed_bytes == 0.0
        assert result.breakdown.act_evict_exposed == 0.0
        assert result.breakdown.act_fetch_exposed == 0.0

    def test_prefetch_overlap_beats_on_demand(self):
        on_demand = self._run(prefetch=0)
        prefetched = self._run(prefetch=1)
        assert (
            prefetched.breakdown.act_fetch_exposed
            < on_demand.breakdown.act_fetch_exposed
        )
        assert prefetched.total < on_demand.total
        # Wire traffic is policy-determined, not prefetch-determined.
        assert prefetched.act_wire_bytes == on_demand.act_wire_bytes

    def test_fetch_stall_monotone_in_prefetch_depth(self):
        stalls = [
            self._run(prefetch=p).breakdown.act_fetch_exposed
            for p in (0, 1, 2)
        ]
        assert stalls[0] >= stalls[1] >= stalls[2]

    def test_breakdown_total_is_critical_path(self):
        result = self._run(prefetch=1)
        b = result.breakdown
        assert b.total == pytest.approx(b.compute + b.communication_exposed)
        assert b.act_evict_exposed >= 0.0
        assert b.act_fetch_exposed >= 0.0
        # Both directions carried traffic: activations out AND back.
        assert b.wire_bytes > 2 * result.act_wire_bytes

    def test_freed_bytes_track_offloaded_activations(self):
        full = self._run(prefetch=1, offload_fraction=1.0)
        half = self._run(prefetch=1, offload_fraction=0.5)
        assert full.freed_bytes == pytest.approx(full.act_bytes)
        assert 0.0 < half.freed_bytes < full.freed_bytes

    def test_policy_layer_mismatch_rejected(self):
        with pytest.raises(ValueError, match="layers"):
            ActivationOffloadEngine(
                SPEC, 4, policy=GroupOffloadPolicy(n_layers=SPEC.n_layers + 1)
            )

    def test_tracer_records_stall_spans(self):
        tracer = Tracer()
        policy = GroupOffloadPolicy(
            n_layers=SPEC.n_layers, group_size=2, prefetch_groups=0
        )
        engine = ActivationOffloadEngine(SPEC, 4, policy=policy)
        with Profile(tracer=tracer).activate():
            engine.simulate_step()
        names = {s.name for s in tracer.spans}
        assert "act-fetch-stall" in names
        assert "forward" in names  # phase marks still emitted


# --- Zero3Engine ----------------------------------------------------------
class TestZero3Engine:
    def _run(self, ranks, fmt="fp16", **kwargs):
        return Zero3Engine(
            SPEC, 8, ranks=ranks, wire_format=fmt, **kwargs
        ).simulate_step()

    def test_validation(self):
        with pytest.raises(ValueError):
            Zero3Engine(SPEC, 8, ranks=0)
        with pytest.raises(ValueError):
            Zero3Engine(SPEC, 2, ranks=4)
        with pytest.raises(ValueError):
            Zero3Engine(SPEC, 9, ranks=2)

    def test_single_rank_degenerates(self):
        result = self._run(ranks=1)
        # No peers: gathers are no-ops, the reducer passes through.
        assert result.gather_in_bytes == 0.0
        assert result.gather_out_bytes == 0.0
        assert result.gather_wait == 0.0
        assert result.breakdown.param_gather_exposed == 0.0
        assert result.reduce_in_bytes > 0.0
        assert result.reduce_out_bytes == pytest.approx(
            result.reduce_in_bytes
        )

    def test_per_rank_shard_bytes_scale_inverse_in_ranks(self):
        results = {r: self._run(ranks=r) for r in (2, 4, 8)}
        assert results[2].per_rank_shard_bytes == pytest.approx(
            2 * results[4].per_rank_shard_bytes
        )
        assert results[4].per_rank_shard_bytes == pytest.approx(
            2 * results[8].per_rank_shard_bytes
        )

    def test_gather_volume_matches_sharding_arithmetic(self):
        R = 4
        result = self._run(ranks=R)
        shard = wire_bytes_for(SPEC.param_bytes / (SPEC.n_layers * R), "fp16")
        # Two gathers per layer (forward + backward re-gather), each
        # consuming one shard per rank.
        expected_in = 2 * SPEC.n_layers * shard * R
        assert result.gather_in_bytes == pytest.approx(expected_in)
        # Multicast replicates R-1 peer shards down each of R ports.
        assert result.gather_out_bytes == pytest.approx(
            expected_in * (R - 1)
        )

    def test_wire_format_composes_multiplicatively(self):
        fp32 = self._run(ranks=4, fmt="fp32")
        fp16 = self._run(ranks=4, fmt="fp16")
        assert fp16.gather_in_bytes == pytest.approx(fp32.gather_in_bytes / 2)
        assert fp16.reduce_in_bytes == pytest.approx(fp32.reduce_in_bytes / 2)
        assert fp16.writeback_bytes == pytest.approx(
            fp32.writeback_bytes / 2
        )

    def test_breakdown_total_is_critical_path(self):
        result = self._run(ranks=4)
        b = result.breakdown
        assert b.total == pytest.approx(b.compute + b.communication_exposed)
        assert b.param_gather_exposed > 0.0
        assert result.gather_wait >= 0.0

    def test_sharded_optimizer_shrinks_with_ranks(self):
        r2, r8 = self._run(ranks=2), self._run(ranks=8)
        assert r8.breakdown.optimizer < r2.breakdown.optimizer
        assert r8.breakdown.grad_clip == pytest.approx(
            r2.breakdown.grad_clip / 4
        )


# --- KVCacheEngine --------------------------------------------------------
class TestKVCacheEngine:
    def _run(self, residency):
        return KVCacheEngine.from_residency(
            SPEC, residency, prompt_tokens=256, decode_tokens=64
        ).simulate_decode()

    def test_validation(self):
        with pytest.raises(ValueError):
            KVCacheEngine(SPEC, prompt_tokens=-1)
        with pytest.raises(ValueError):
            KVCacheEngine(SPEC, decode_tokens=0)
        with pytest.raises(ValueError):
            KVCacheEngine(SPEC, hbm_tokens=0)
        with pytest.raises(ValueError):
            KVCacheEngine.from_residency(SPEC, 0.0)

    def test_fully_resident_cache_never_touches_cxl(self):
        result = self._run(1.0)
        assert result.fetched_bytes == 0.0
        assert result.evicted_bytes == 0.0
        assert result.fetch_exposed == 0.0
        assert result.total_time == pytest.approx(result.compute_time)

    def test_throughput_monotone_in_residency(self):
        tok_s = [self._run(r).tokens_per_s for r in (0.25, 0.5, 0.75, 1.0)]
        assert tok_s == sorted(tok_s)
        assert tok_s[0] < tok_s[-1]  # strictly non-degenerate spread

    def test_traffic_accounting(self):
        result = self._run(0.5)
        assert result.fetched_bytes > 0.0
        # Evictions: one KV pair per decoded token once the tier fills.
        assert result.evicted_bytes > 0.0
        assert result.evicted_bytes < result.fetched_bytes
        assert result.residency == pytest.approx(0.5, rel=0.01, abs=0)
        assert kv_bytes_per_token(SPEC) == (
            2.0 * SPEC.n_layers * SPEC.hidden * 2
        )

    def test_compute_time_independent_of_residency(self):
        lo, hi = self._run(0.25), self._run(1.0)
        assert lo.compute_time == pytest.approx(hi.compute_time)

    def test_tracer_records_decode_span(self):
        tracer = Tracer()
        engine = KVCacheEngine.from_residency(
            SPEC, 0.5, prompt_tokens=64, decode_tokens=8
        )
        with Profile(tracer=tracer).activate():
            engine.simulate_decode()
        names = {s.name for s in tracer.spans}
        assert "decode" in names
        assert "kv-fetch-stall" in names


# --- FabricGather ---------------------------------------------------------
class TestFabricGather:
    def _fabric(self, n_ports=4):
        with Profile().activate():
            sim = Simulator()
        fabric = CXLFabric(
            sim, FabricParams(n_ports=n_ports, port_latency=0.0)
        )
        return sim, fabric

    def test_validation(self):
        sim, fabric = self._fabric()
        with pytest.raises(ValueError):
            FabricGather(fabric, [])
        with pytest.raises(ValueError):
            FabricGather(fabric, [0, 9])
        with pytest.raises(ValueError):
            FabricGather(fabric, [0, 1], tenant=5)
        with pytest.raises(ValueError):
            fabric.gather_unit(ranks=[0, 1]).gather(-1.0)

    def test_single_rank_gather_is_noop(self):
        sim, fabric = self._fabric()
        gather = fabric.gather_unit(ranks=[0])
        ev = gather.gather(1 << 20)
        assert ev.triggered
        assert gather.bytes_in == 0.0 and gather.bytes_out == 0.0
        sim.run()
        assert sim.now == 0.0

    def test_byte_accounting(self):
        sim, fabric = self._fabric(n_ports=4)
        gather = fabric.gather_unit(ranks=range(4))
        shard = float(1 << 22)
        done = gather.gather(shard)
        sim.run()
        assert done.triggered
        assert gather.bytes_in == shard * 4
        assert gather.bytes_out == shard * 4 * 3  # R-1 peers x R ports
        stats = fabric.stats.snapshot()
        assert stats["gather_in_bytes"] == shard * 4
        assert stats["gather_out_bytes"] == shard * 12
        # Each port carried its shard up and 3 peer shards down.
        for port in range(4):
            assert fabric.stats.port_bytes[port] == pytest.approx(shard * 4)

    def test_gather_completion_time_covers_multicast(self):
        sim, fabric = self._fabric(n_ports=2)
        gather = fabric.gather_unit(ranks=[0, 1])
        shard = float(1 << 22)
        gather.gather(shard)
        sim.run()
        bw = fabric.params.port_bandwidth
        # Lower bound: shard up + peer shard down on one port wire.
        assert sim.now >= 2 * bw.time_for(shard) - 1e-12

    def test_metrics_counters(self):
        sim, fabric = self._fabric(n_ports=2)
        gather = fabric.gather_unit(ranks=[0, 1])
        gather.gather(float(1 << 20))
        sim.run()
        counters = sim.metrics.counters()
        assert counters[f"{fabric.name}.gather.in_bytes"] == float(1 << 21)
        assert counters[f"{fabric.name}.gather.out_bytes"] == float(1 << 21)
