"""Autoregressive decode with a KV-cache spilling to CXL memory.

Training is the paper's workload, but the CXL capacity tier it builds is
just as attractive for *inference*: an autoregressive decoder's KV-cache
grows linearly with context length and quickly exceeds HBM at long
contexts or high batch.  This engine simulates token-by-token decoding
with a two-tier cache:

* the **hot tier** (HBM) holds the most recent ``hbm_tokens`` positions'
  keys/values — the recency window attention reads cheapest;
* **cold entries** spill to CXL.  Every decode step attends over the
  full context, so the cold slice must stream in over the CXL→GPU wire;
  the fetch is launched at step start and overlaps the step's compute,
  leaving ``max(0, fetch_done - compute_done)`` exposed;
* as the context outgrows the hot tier, the oldest resident position's
  KV pair is evicted on the GPU→CXL wire, asynchronously (write-behind;
  a fence at the end of decoding exposes any undrained tail).

Decode compute per token is the standard estimate ``2 * compute_params``
FLOPs plus the attention term ``4 * n_layers * hidden * context`` at the
engine's (batch 1) GPU efficiency.  Tokens/s therefore degrades
monotonically as cache residency shrinks — the fig_kvcache acceptance
curve — because every lost resident token adds fetch bytes to each
subsequent step while compute stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.specs import ModelSpec
from repro.offload.engines import _cxl_wire_volume
from repro.offload.timing import HardwareParams
from repro.sim import SerialLink, Simulator
from repro.utils.units import GB

__all__ = ["KV_ELEM_BYTES", "kv_bytes_per_token", "DecodeResult", "KVCacheEngine"]

#: KV entries are stored in FP16 (inference-serving default).
KV_ELEM_BYTES = 2


def kv_bytes_per_token(spec: ModelSpec) -> float:
    """KV-cache bytes one context position costs (all layers, K + V)."""
    return 2.0 * spec.n_layers * spec.hidden * KV_ELEM_BYTES


@dataclass(frozen=True)
class DecodeResult:
    """One simulated decode run."""

    decode_tokens: int
    prompt_tokens: int
    hbm_tokens: int
    #: Wall-clock seconds of the whole decode (fences included).
    total_time: float
    #: Pure compute seconds (the residency-1.0 lower bound).
    compute_time: float
    #: Fetch seconds exposed past compute, summed over steps.
    fetch_exposed: float
    #: Eviction-drain seconds exposed at the end-of-decode fence.
    evict_exposed: float
    #: Cold KV bytes fetched from CXL (wire volume).
    fetched_bytes: float
    #: KV bytes evicted to CXL (wire volume).
    evicted_bytes: float

    @property
    def final_context(self) -> int:
        """Context length after the last decoded token."""
        return self.prompt_tokens + self.decode_tokens

    @property
    def residency(self) -> float:
        """Hot-tier fraction of the final context."""
        return min(1.0, self.hbm_tokens / self.final_context)

    @property
    def tokens_per_s(self) -> float:
        """Decode throughput."""
        return self.decode_tokens / self.total_time if self.total_time else 0.0

    @property
    def fetched_gb(self) -> float:
        """:attr:`fetched_bytes` in GB."""
        return self.fetched_bytes / GB

    @property
    def evicted_gb(self) -> float:
        """:attr:`evicted_bytes` in GB."""
        return self.evicted_bytes / GB


class KVCacheEngine:
    """Token-by-token decode with a CXL-spilled KV-cache."""

    def __init__(
        self,
        spec: ModelSpec,
        prompt_tokens: int = 512,
        decode_tokens: int = 128,
        hbm_tokens: int | None = None,
        hw: HardwareParams | None = None,
    ):
        if prompt_tokens < 0:
            raise ValueError("prompt_tokens must be non-negative")
        if decode_tokens < 1:
            raise ValueError("decode_tokens must be >= 1")
        self.spec = spec
        self.prompt_tokens = prompt_tokens
        self.decode_tokens = decode_tokens
        final = prompt_tokens + decode_tokens
        self.hbm_tokens = final if hbm_tokens is None else int(hbm_tokens)
        if self.hbm_tokens < 1:
            raise ValueError("hbm_tokens must be >= 1")
        self.hw = hw or HardwareParams.paper_default()

    @classmethod
    def from_residency(
        cls,
        spec: ModelSpec,
        residency: float,
        prompt_tokens: int = 512,
        decode_tokens: int = 128,
        **kwargs,
    ) -> "KVCacheEngine":
        """Engine whose hot tier holds ``residency`` of the final context."""
        if not 0.0 < residency <= 1.0:
            raise ValueError("residency must be in (0, 1]")
        final = prompt_tokens + decode_tokens
        return cls(
            spec,
            prompt_tokens=prompt_tokens,
            decode_tokens=decode_tokens,
            hbm_tokens=max(1, round(residency * final)),
            **kwargs,
        )

    def decode_step_flops(self, context: int) -> float:
        """FLOPs to decode one token at the given context length."""
        spec = self.spec
        return (
            2.0 * spec.compute_params
            + 4.0 * spec.n_layers * spec.hidden * context
        )

    def simulate_decode(self) -> DecodeResult:
        """Simulate ``decode_tokens`` sequential decode steps."""
        spec, hw = self.spec, self.hw
        sim = Simulator()
        # Full-duplex CXL: fetches inbound, evictions outbound.
        down = SerialLink(sim, hw.cxl.effective_bandwidth, name="kv-fetch")
        up = SerialLink(sim, hw.cxl.effective_bandwidth, name="kv-evict")
        throughput = hw.gpu_throughput(spec, 1)
        per_token = kv_bytes_per_token(spec)
        totals = {
            "compute": 0.0,
            "fetch_exposed": 0.0,
            "evict_exposed": 0.0,
            "fetched": 0.0,
            "evicted": 0.0,
        }

        def decode(sim: Simulator):
            context = self.prompt_tokens
            resident = min(context, self.hbm_tokens)
            evictions = []
            for _ in range(self.decode_tokens):
                cold = context - resident
                compute = self.decode_step_flops(context) / throughput
                fetch_ev = None
                if cold > 0:
                    wire = _cxl_wire_volume(cold * per_token, 4)
                    totals["fetched"] += wire
                    fetch_ev = down.transmit(wire)
                t0 = sim.now
                yield sim.timeout(compute)
                totals["compute"] += compute
                if fetch_ev is not None:
                    yield fetch_ev
                    exposed = sim.now - t0 - compute
                    if exposed > 0.0:
                        totals["fetch_exposed"] += exposed
                        if sim.tracer.enabled:
                            sim.tracer.add_span(
                                t0 + compute,
                                sim.now,
                                "kv-fetch-stall",
                                "offload",
                                track="transfer",
                                context=context,
                                cold_tokens=cold,
                            )
                # Append the new token's KV; evict the oldest resident
                # position (write-behind) once the hot tier is full.
                context += 1
                if resident < self.hbm_tokens:
                    resident += 1
                else:
                    wire = _cxl_wire_volume(per_token, 4)
                    totals["evicted"] += wire
                    evictions.append(up.transmit(wire))
            t0 = sim.now
            yield sim.all_of(evictions)  # drain write-behind evictions
            totals["evict_exposed"] = sim.now - t0

        sim.process(decode(sim))
        sim.run()
        if sim.tracer.enabled:
            sim.tracer.add_span(
                0.0,
                sim.now,
                "decode",
                "trainer",
                track="step",
                system="kv-cache",
                tokens=self.decode_tokens,
            )
        return DecodeResult(
            decode_tokens=self.decode_tokens,
            prompt_tokens=self.prompt_tokens,
            hbm_tokens=self.hbm_tokens,
            total_time=sim.now,
            compute_time=totals["compute"],
            fetch_exposed=totals["fetch_exposed"],
            evict_exposed=totals["evict_exposed"],
            fetched_bytes=totals["fetched"],
            evicted_bytes=totals["evicted"],
        )
