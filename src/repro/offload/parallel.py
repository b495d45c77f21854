"""Multi-GPU data-parallel extension (beyond the paper's single-GPU eval).

The paper motivates TECO with the observation that large-scale data
parallelism forces the *per-GPU* batch size down (the global batch is
capped by convergence), which is exactly the regime where ZeRO-Offload's
exposed transfers hurt most and DPU fails (Section II-A).  This module
extends the step simulation to N data-parallel workers in the
ZeRO-Offload arrangement:

* every GPU computes forward/backward on its micro-batch;
* gradients are reduce-scattered across GPUs (ring, over NVLink or PCIe
  peer links), so each GPU owns 1/N of the gradient;
* each GPU ships its shard to the CPU over its own CXL/PCIe link; the
  CPU's ADAM updates the full parameter set (shard-parallel);
* updated parameter shards return to their owner GPUs and are
  all-gathered across GPUs.

TECO applies per host link: gradient shards stream during backward and
parameter shards stream during the (1/N-sized) ADAM sweep, with DBA on
the parameter direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dba.registers import check_dirty_bytes
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.engines import (
    STREAM_CHUNKS,
    SystemKind,
    _cxl_wire_volume,
    _trace_phase_marks,
)
from repro.offload.timing import HardwareParams
from repro.sim import SerialLink, Simulator
from repro.utils.units import GB, Bandwidth

__all__ = ["ClusterParams", "DataParallelEngine", "dp_step_process"]


def dp_step_process(
    sim: Simulator,
    *,
    kind: SystemKind,
    link,
    marks: dict[str, float],
    fwd: float,
    bwd: float,
    clip: float,
    adam: float,
    shard_bytes: float,
    param_shard_bytes: float,
    reduce_scatter: float,
    all_gather: float,
    dma_setup_latency: float,
    dirty_bytes: int,
    grad_reduce=None,
    grad_reduce_bytes: float = 0.0,
):
    """One data-parallel worker's step, as a simulation process.

    The generator models the representative GPU of one ZeRO-sharded
    data-parallel job: compute phases, ring-collective charges, and the
    host-link traffic of its 1/n gradient/parameter shards.  ``link``
    is anything :class:`~repro.sim.SerialLink`-shaped — a private host
    attachment (:class:`DataParallelEngine`) or a shared multi-host
    :class:`~repro.interconnect.fabric.FabricPort`
    (:class:`~repro.offload.cluster.ClusterEngine`), which is how the
    same step logic runs unmodified under pool contention.  Phase end
    times are written into ``marks``.

    When ``grad_reduce`` is set (the ``reduce_in_fabric`` mode), the
    gradient direction bypasses both the ring reduce-scatter and the
    per-shard host-link transfer: every rank instead streams its **full
    encoded gradient** (``grad_reduce_bytes`` per rank, sized by the
    wire format) into the in-fabric reduction stage — a callable
    ``(n_bytes_per_rank, extra_delay) -> SimEvent``, normally
    :meth:`repro.interconnect.aggregation.FabricReducer.reduce` — and
    only the reduced stream crosses the pool boundary.  The parameter
    direction (host link + all-gather) is unchanged.  With
    ``grad_reduce=None`` (the default) the process is bit-identical to
    its pre-aggregation behavior.
    """
    yield sim.timeout(fwd)
    marks["fwd_end"] = sim.now
    if kind is SystemKind.ZERO_OFFLOAD:
        yield sim.timeout(bwd)
        marks["bwd_end"] = sim.now
        if grad_reduce is not None:
            # In-fabric aggregation replaces ring + per-shard transfer.
            yield grad_reduce(grad_reduce_bytes, dma_setup_latency)
        else:
            # reduce-scatter, then each GPU's shard crosses its link.
            yield sim.timeout(reduce_scatter)
            yield link.transmit(shard_bytes, extra_delay=dma_setup_latency)
        marks["grads_on_cpu"] = sim.now
        yield sim.timeout(clip)
        marks["clip_end"] = sim.now
        yield sim.timeout(adam)
        marks["adam_end"] = sim.now
        yield link.transmit(param_shard_bytes, extra_delay=dma_setup_latency)
        yield sim.timeout(all_gather)
        marks["params_on_gpu"] = sim.now
    else:
        # TECO: shard gradients stream during backward (the ring
        # reduce-scatter pipelines bucket-by-bucket with backward
        # too; its residual tail is charged after backward).
        per = bwd / STREAM_CHUNKS
        transfers = []
        if grad_reduce is not None:
            # Encoded full-gradient chunks stream straight into the
            # in-fabric reducer during backward; there is no ring, so
            # no reduce-scatter tail either.
            for i in range(STREAM_CHUNKS):
                yield sim.timeout(per)
                transfers.append(
                    grad_reduce(
                        grad_reduce_bytes / STREAM_CHUNKS,
                        dma_setup_latency if i == 0 else 0.0,
                    )
                )
            marks["bwd_end"] = sim.now
            yield sim.all_of(transfers)
        else:
            shard_wire = _cxl_wire_volume(shard_bytes, 4)
            for _ in range(STREAM_CHUNKS):
                yield sim.timeout(per)
                transfers.append(link.transmit(shard_wire / STREAM_CHUNKS))
            marks["bwd_end"] = sim.now
            yield sim.timeout(reduce_scatter / STREAM_CHUNKS)  # tail
            yield sim.all_of(transfers)
        marks["grads_on_cpu"] = sim.now
        yield sim.timeout(clip)
        marks["clip_end"] = sim.now
        param_wire = _cxl_wire_volume(param_shard_bytes, dirty_bytes)
        per = adam / STREAM_CHUNKS
        transfers = []
        for _ in range(STREAM_CHUNKS):
            yield sim.timeout(per)
            transfers.append(link.transmit(param_wire / STREAM_CHUNKS))
        marks["adam_end"] = sim.now
        yield sim.all_of(transfers)
        yield sim.timeout(all_gather / STREAM_CHUNKS)  # tail
        marks["params_on_gpu"] = sim.now


@dataclass(frozen=True)
class ClusterParams:
    """Inter-GPU collective-communication parameters.

    ``collective_bandwidth`` is the per-GPU bus bandwidth available to
    ring collectives (NVLink-class by default).  The ring algebra, made
    explicit because an earlier docstring mixed the two conventions up:
    a ring reduce-scatter or all-gather over a *full tensor* of ``S``
    bytes moves ``S * (n-1)/n`` bytes through each GPU's bus port.
    :meth:`ring_time` takes the **per-GPU shard** ``s = S/n`` (what the
    ZeRO-sharded engines naturally hold) and therefore charges
    ``s * (n-1)`` — the same quantity.  Use :meth:`ring_time_for_tensor`
    when you hold the full tensor size instead.
    """

    n_gpus: int = 4
    collective_bandwidth: Bandwidth = field(
        default_factory=lambda: Bandwidth(60 * GB)
    )
    collective_latency: float = 10e-6

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if self.collective_latency < 0:
            raise ValueError("collective_latency must be non-negative")

    def ring_time(self, shard_bytes_per_gpu: float) -> float:
        """One ring collective (reduce-scatter or all-gather).

        ``shard_bytes_per_gpu`` is the **1/n shard** each GPU owns, not
        the full tensor; per-GPU bus traffic is ``shard * (n-1)``
        (equivalently ``S * (n-1)/n`` for the full tensor ``S``).
        """
        if shard_bytes_per_gpu < 0:
            raise ValueError("bytes must be non-negative")
        if self.n_gpus == 1:
            return 0.0
        moved = shard_bytes_per_gpu * (self.n_gpus - 1)
        return self.collective_latency + self.collective_bandwidth.time_for(
            moved
        )

    def ring_time_for_tensor(self, tensor_bytes: float) -> float:
        """Ring collective over a **full tensor** of ``tensor_bytes``.

        Convenience wrapper that derives the 1/n shard, so callers
        holding unsharded sizes cannot accidentally over-charge the bus
        by ``n``: ``ring_time_for_tensor(S) == ring_time(S / n)``.
        """
        if tensor_bytes < 0:
            raise ValueError("bytes must be non-negative")
        return self.ring_time(tensor_bytes / self.n_gpus)


class DataParallelEngine:
    """N-GPU ZeRO-Offload / TECO step simulation.

    ``global_batch`` is split evenly across GPUs; host links are
    per-GPU (one CXL/PCIe attachment each), and the CPU-side optimizer
    work parallelizes over shards (its memory bandwidth is shared, so the
    sweep time stays that of the full parameter set).

    With ``reduce_in_fabric=True`` the gradient direction runs through a
    private in-fabric reduction stage instead of the ring: every GPU
    streams its full gradient — encoded in ``grad_wire_format`` — into a
    :class:`~repro.interconnect.aggregation.FabricReducer` over a
    one-port-per-GPU :class:`~repro.interconnect.fabric.CXLFabric`, and
    a single reduced stream crosses the pool boundary.  The parameter
    direction (host link + all-gather) is unchanged.
    """

    def __init__(
        self,
        kind: SystemKind,
        spec: ModelSpec,
        global_batch: int,
        cluster: ClusterParams | None = None,
        hw: HardwareParams | None = None,
        dirty_bytes: int = 2,
        reduce_in_fabric: bool = False,
        grad_wire_format="fp32",
    ):
        from repro.interconnect.aggregation import WireFormat

        self.kind = kind
        self.spec = spec
        self.cluster = cluster or ClusterParams()
        if global_batch < self.cluster.n_gpus:
            raise ValueError("global_batch must be >= n_gpus")
        if global_batch % self.cluster.n_gpus:
            raise ValueError("global_batch must divide evenly across GPUs")
        self.global_batch = global_batch
        self.hw = hw or HardwareParams.paper_default()
        check_dirty_bytes(dirty_bytes)
        self.dirty_bytes = (
            dirty_bytes if kind is SystemKind.TECO_REDUCTION else 4
        )
        self.reduce_in_fabric = reduce_in_fabric
        self.grad_wire_format = WireFormat.parse(grad_wire_format)

    @property
    def micro_batch(self) -> int:
        """Per-GPU batch size."""
        return self.global_batch // self.cluster.n_gpus

    def simulate_step(self) -> StepBreakdown:
        """Simulate one data-parallel training step."""
        spec, hw, n = self.spec, self.hw, self.cluster.n_gpus
        micro = self.micro_batch
        fwd = hw.forward_time(spec, micro)
        bwd = hw.backward_time(spec, micro)
        clip = hw.grad_clip_time(spec)
        adam = hw.adam_time(spec)
        shard_bytes = spec.gradient_bytes / n
        reduce_scatter = self.cluster.ring_time(shard_bytes)
        all_gather = self.cluster.ring_time(spec.param_bytes / n)

        sim = Simulator()
        if self.kind is SystemKind.ZERO_OFFLOAD:
            link_bw = hw.pcie.effective_bandwidth
        else:
            link_bw = hw.cxl.effective_bandwidth
        host_link = SerialLink(sim, link_bw, name="host")
        marks: dict[str, float] = {}

        grad_reduce = None
        grad_reduce_bytes = 0.0
        reducer = None
        if self.reduce_in_fabric:
            from repro.interconnect.aggregation import wire_bytes_for
            from repro.interconnect.fabric import CXLFabric, FabricParams

            fabric = CXLFabric(
                sim,
                FabricParams(
                    n_ports=n,
                    n_tenants=1,
                    port_bandwidth=link_bw,
                    port_latency=0.0,
                ),
                name="dp-fabric",
            )
            reducer = fabric.reducer(ranks=range(n))
            grad_reduce = reducer.reduce
            grad_reduce_bytes = wire_bytes_for(
                spec.gradient_bytes, self.grad_wire_format
            )

        sim.process(
            dp_step_process(
                sim,
                kind=self.kind,
                link=host_link,
                marks=marks,
                fwd=fwd,
                bwd=bwd,
                clip=clip,
                adam=adam,
                shard_bytes=shard_bytes,
                param_shard_bytes=spec.param_bytes / n,
                reduce_scatter=reduce_scatter,
                all_gather=all_gather,
                dma_setup_latency=hw.pcie.dma_setup_latency,
                dirty_bytes=self.dirty_bytes,
                grad_reduce=grad_reduce,
                grad_reduce_bytes=grad_reduce_bytes,
            )
        )
        sim.run()
        _trace_phase_marks(
            sim, marks, system=f"{self.kind.value} x{n}"
        )
        # host_link is *one* GPU's attachment; the cluster drives n of
        # them.  wire_bytes is the aggregate cluster traffic (an earlier
        # version reported the single link here, undercounting by n and
        # making multi-GPU volumes incomparable with the single-GPU
        # engines); per-link traffic is reported alongside.  Under
        # reduce_in_fabric the gradient direction is the reducer's
        # aggregate intake (n encoded full gradients) instead of the n
        # host-link shards.
        grad_wire = reducer.bytes_in if reducer is not None else 0.0
        return StepBreakdown(
            forward=fwd,
            backward=marks["bwd_end"] - marks["fwd_end"],
            grad_transfer_exposed=marks["grads_on_cpu"] - marks["bwd_end"],
            grad_clip=clip,
            optimizer=marks["adam_end"] - marks["clip_end"],
            param_transfer_exposed=marks["params_on_gpu"] - marks["adam_end"],
            wire_bytes=host_link.bytes_sent * n + grad_wire,
            wire_bytes_per_link=host_link.bytes_sent + grad_wire / n,
        )
