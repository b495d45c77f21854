"""ZeRO-3-style parameter sharding over the CXL fabric.

ZeRO stage 3 (the ReaLHF / DeepSpeed ``stage=3`` configuration in
SNIPPETS.md) partitions parameters, gradients, *and* optimizer state
across data-parallel ranks: no rank ever holds the full model.  Before
each layer's compute the layer's parameter shards are all-gathered;
after its backward the layer's gradients are reduced and only the
owner's shard persists.  Offloading the shards to pooled CXL memory
makes the fabric the collective fabric too:

* **parameter gathers** ride :class:`~repro.interconnect.gather.FabricGather`
  — each rank uplinks its ``1/R`` shard, the switch multicasts the peer
  shards back down.  The engine keeps ``prefetch_layers`` gathers in
  flight ahead of the layer being computed (forward *and* the reversed
  backward re-gather — ZeRO-3 frees gathered layers immediately, so
  backward gathers again); residual stalls are
  ``StepBreakdown.param_gather_exposed``;
* **gradient reduction** rides
  :class:`~repro.interconnect.aggregation.FabricReducer` (PR 7): each
  layer's full gradient enters per rank in ``wire_format`` and one
  reduced stream crosses the pool boundary.  A ``CXLFENCE`` at backward
  end exposes the undrained tail;
* **optimizer** — clip and the ADAM sweep shrink by ``1/R`` (sharded
  states, one host CPU per rank), and each rank streams its updated
  encoded parameter shard back through its fabric port during the
  sweep.

All traffic — gathers, reductions, write-backs — shares the fabric's
port links, switch, and partitioned pool, so contention between the
collectives is emergent rather than charged analytically.  Every
payload is sized by :func:`~repro.interconnect.aggregation.wire_bytes_for`,
composing the sharding with the low-bit wire formats.

With ``ranks=1`` nothing is sharded: gathers are no-ops, the "reduction"
is a single-rank passthrough, and the engine degenerates to a one-host
fabric-attached trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interconnect.aggregation import WireFormat, wire_bytes_for
from repro.interconnect.fabric import CXLFabric, FabricParams, PartitionPolicy
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.engines import STREAM_CHUNKS, _trace_phase_marks
from repro.offload.timing import HardwareParams
from repro.sim import Simulator
from repro.utils.checks import check_int
from repro.utils.units import GB

__all__ = ["Zero3StepResult", "Zero3Engine"]


@dataclass(frozen=True)
class Zero3StepResult:
    """One ZeRO-3 step: breakdown + sharded-collective traffic."""

    breakdown: StepBreakdown
    ranks: int
    wire_format: str
    #: Per-rank shard bytes uplinked into gathers (both passes).
    gather_in_bytes: float
    #: Peer-shard bytes multicast back down the port links.
    gather_out_bytes: float
    #: Seconds shard streams waited at the gather barrier.
    gather_wait: float
    #: Per-rank encoded gradient bytes that entered the reducer.
    reduce_in_bytes: float
    #: Reduced gradient bytes that crossed the pool boundary.
    reduce_out_bytes: float
    #: Updated parameter-shard bytes written back through the ports.
    writeback_bytes: float

    @property
    def total(self) -> float:
        """Critical-path step time."""
        return self.breakdown.total

    @property
    def per_rank_shard_bytes(self) -> float:
        """Sharded wire bytes one rank sources per step (uplink shards
        into gathers plus its parameter-shard write-back) — the ZeRO-3
        quantity that scales as ``1/ranks``."""
        return (self.gather_in_bytes + self.writeback_bytes) / self.ranks

    @property
    def per_rank_shard_gb(self) -> float:
        """:attr:`per_rank_shard_bytes` in GB."""
        return self.per_rank_shard_bytes / GB


class Zero3Engine:
    """One ZeRO-3 sharded training step over a CXL fabric."""

    def __init__(
        self,
        spec: ModelSpec,
        global_batch: int,
        ranks: int = 4,
        hw: HardwareParams | None = None,
        prefetch_layers: int = 1,
        wire_format: "WireFormat | str" = "fp16",
        policy: "PartitionPolicy | str" = PartitionPolicy.FAIR_SHARE,
    ):
        ranks = check_int("ranks", ranks, 1)
        global_batch = check_int("global_batch", global_batch, ranks)
        if global_batch % ranks:
            raise ValueError("global_batch must divide evenly across ranks")
        self.spec = spec
        self.global_batch = global_batch
        self.ranks = ranks
        self.hw = hw or HardwareParams.paper_default()
        self.prefetch_layers = check_int("prefetch_layers", prefetch_layers, 0)
        self.wire_format = WireFormat.parse(wire_format)
        self.policy = PartitionPolicy.parse(policy)

    @property
    def micro_batch(self) -> int:
        """Per-rank batch size."""
        return self.global_batch // self.ranks

    def simulate_step(self) -> Zero3StepResult:
        """Simulate one sharded step."""
        spec, hw, R = self.spec, self.hw, self.ranks
        fmt = self.wire_format
        micro = self.micro_batch
        fwd = hw.forward_time(spec, micro)
        bwd = hw.backward_time(spec, micro)
        # Sharded optimizer: each rank's host CPU sweeps 1/R of the
        # states (clip needs a tiny cross-rank norm reduce, negligible
        # next to the arena passes).
        clip = hw.grad_clip_time(spec) / R
        adam = hw.adam_time(spec) / R

        n_layers = spec.n_layers
        per_fwd = fwd / n_layers
        per_bwd = bwd / n_layers
        layer_param = spec.param_bytes / n_layers
        gather_shard = wire_bytes_for(layer_param / R, fmt)
        grad_layer = wire_bytes_for(spec.gradient_bytes / n_layers, fmt)
        writeback_shard = wire_bytes_for(spec.param_bytes / R, fmt)

        sim = Simulator()
        fabric = CXLFabric(
            sim,
            FabricParams(
                n_ports=R,
                n_tenants=1,
                port_bandwidth=hw.cxl.effective_bandwidth,
                port_latency=0.0,
                policy=self.policy,
            ),
            name="zero3-fabric",
        )
        gather = fabric.gather_unit(ranks=range(R))
        reducer = fabric.reducer(ranks=range(R))
        ports = [fabric.port(i) for i in range(R)]
        marks: dict[str, float] = {}
        stalls = {"fwd": 0.0, "bwd": 0.0}

        def sharded_pass(sim: Simulator, order: list[int], phase: str, per: float):
            """Gather-ahead-of-compute over ``order``'s layers."""
            events: dict[int, object] = {}
            issued = 0

            def issue_through(k: int) -> None:
                nonlocal issued
                while issued <= min(k, n_layers - 1):
                    if R > 1:
                        events[order[issued]] = gather.gather(gather_shard)
                    issued += 1

            for k, layer in enumerate(order):
                issue_through(k + self.prefetch_layers)
                if layer in events:
                    t0 = sim.now
                    yield events[layer]
                    stall = sim.now - t0
                    if stall > 0.0:
                        stalls[phase] += stall
                        if sim.tracer.enabled:
                            sim.tracer.add_span(
                                t0,
                                sim.now,
                                "gather-stall",
                                "offload",
                                track="transfer",
                                layer=layer,
                                phase=phase,
                            )
                yield sim.timeout(per)
                if phase == "bwd":
                    # The layer's gradients enter the in-fabric reducer
                    # as soon as its backward finishes.
                    grad_events.append(reducer.reduce(grad_layer))

        grad_events: list = []

        def step(sim: Simulator):
            yield from sharded_pass(
                sim, list(range(n_layers)), "fwd", per_fwd
            )
            marks["fwd_end"] = sim.now
            yield from sharded_pass(
                sim, list(range(n_layers - 1, -1, -1)), "bwd", per_bwd
            )
            marks["bwd_end"] = sim.now
            yield sim.all_of(grad_events)  # CXLFENCE after backward
            marks["grads_on_cpu"] = sim.now
            yield sim.timeout(clip)
            marks["clip_end"] = sim.now
            # Each rank streams its updated encoded shard back through
            # its own port while the (1/R-sized) ADAM sweep runs.
            per = adam / STREAM_CHUNKS
            per_bytes = writeback_shard / STREAM_CHUNKS
            transfers = []
            for _ in range(STREAM_CHUNKS):
                yield sim.timeout(per)
                for port in ports:
                    transfers.append(port.transmit(per_bytes))
            marks["adam_end"] = sim.now
            yield sim.all_of(transfers)
            marks["params_on_gpu"] = sim.now

        sim.process(step(sim))
        sim.run()
        _trace_phase_marks(sim, marks, system=f"zero3 x{R} {fmt.value}")

        stats = fabric.stats
        writeback_total = sum(p.bytes_sent for p in ports)
        breakdown = StepBreakdown(
            forward=fwd,
            backward=marks["bwd_end"] - marks["fwd_end"] - stalls["bwd"],
            grad_transfer_exposed=marks["grads_on_cpu"] - marks["bwd_end"],
            grad_clip=clip,
            optimizer=marks["adam_end"] - marks["clip_end"],
            param_transfer_exposed=marks["params_on_gpu"] - marks["adam_end"],
            param_gather_exposed=stalls["fwd"] + stalls["bwd"],
            wire_bytes=stats.total_bytes,
            wire_bytes_per_link=stats.total_bytes / R,
        )
        return Zero3StepResult(
            breakdown=breakdown,
            ranks=R,
            wire_format=fmt.value,
            gather_in_bytes=gather.bytes_in,
            gather_out_bytes=gather.bytes_out,
            gather_wait=stats.gather_wait,
            reduce_in_bytes=reducer.bytes_in,
            reduce_out_bytes=reducer.bytes_out,
            writeback_bytes=writeback_total,
        )
