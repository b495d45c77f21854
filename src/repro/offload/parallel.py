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
from repro.sim.resources import _check_amount
from repro.utils.checks import check_bandwidth, check_int
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

    When ``grad_reduce`` is set (``ClusterEngine``'s
    ``reduce_in_fabric`` mode), the gradient direction bypasses both
    the ring reduce-scatter and the per-shard host-link transfer: every
    rank instead streams its **full encoded gradient**
    (``grad_reduce_bytes`` per rank, sized by the wire format) into the
    in-fabric reduction stage — a callable ``(n_bytes_per_rank,
    extra_delay) -> SimEvent``, normally
    :meth:`repro.interconnect.aggregation.FabricReducer.reduce` — and
    only the reduced stream crosses the pool boundary.  The parameter
    direction (host link + all-gather) is unchanged.
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
        object.__setattr__(self, "n_gpus", check_int("n_gpus", self.n_gpus, 1))
        check_bandwidth("collective_bandwidth", self.collective_bandwidth)
        _check_amount("collective_latency", self.collective_latency)

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

    This is the one data-parallel job model: validation, phase times,
    the :func:`dp_step_process` run and the breakdown from its marks.
    :class:`~repro.offload.cluster.ClusterEngine` runs the same jobs on
    a shared fabric, in-fabric gradient reduction included.
    """

    def __init__(
        self,
        kind: SystemKind,
        spec: ModelSpec,
        global_batch: int,
        cluster: ClusterParams | None = None,
        hw: HardwareParams | None = None,
        dirty_bytes: int = 2,
    ):
        self.kind = kind
        self.spec = spec
        self.cluster = cluster or ClusterParams()
        n = self.cluster.n_gpus
        self.global_batch = check_int("global_batch", global_batch, n)
        if self.global_batch % n:
            raise ValueError("global_batch must divide evenly across GPUs")
        self.hw = hw or HardwareParams.paper_default()
        check_dirty_bytes(dirty_bytes)
        self.dirty_bytes = (
            dirty_bytes if kind is SystemKind.TECO_REDUCTION else 4
        )

    @property
    def micro_batch(self) -> int:
        """Per-GPU batch size."""
        return self.global_batch // self.cluster.n_gpus

    @property
    def _link_bandwidth(self) -> Bandwidth:
        """One GPU's host-link bandwidth: PCIe for ZeRO-Offload, else CXL."""
        if self.kind is SystemKind.ZERO_OFFLOAD:
            return self.hw.pcie.effective_bandwidth
        return self.hw.cxl.effective_bandwidth

    def simulate_step(self) -> StepBreakdown:
        """Simulate one data-parallel training step."""
        sim = Simulator()
        host_link = SerialLink(sim, self._link_bandwidth, name="host")
        (breakdown,) = self._run_jobs(sim, [host_link], [""])
        return breakdown

    def _run_jobs(
        self, sim: Simulator, links, suffixes, reducers=None,
        grad_reduce_bytes: float = 0.0,
    ) -> list[StepBreakdown]:
        """Step one job per host link in ``sim``; return their breakdowns.

        Job ``j`` drives ``links[j]``, labels its trace phases with
        ``suffixes[j]`` and, with ``reducers``, streams its gradient
        (``grad_reduce_bytes`` per rank) into ``reducers[j]``.
        """
        spec, hw, n = self.spec, self.hw, self.cluster.n_gpus
        micro = self.micro_batch
        fwd = hw.forward_time(spec, micro)
        bwd = hw.backward_time(spec, micro)
        clip = hw.grad_clip_time(spec)
        adam = hw.adam_time(spec)
        shard_bytes = spec.gradient_bytes / n
        param_shard = spec.param_bytes / n
        reduce_scatter = self.cluster.ring_time(shard_bytes)
        all_gather = self.cluster.ring_time(param_shard)
        all_marks: list[dict[str, float]] = []
        for j, link in enumerate(links):
            marks: dict[str, float] = {}
            all_marks.append(marks)
            sim.process(
                dp_step_process(
                    sim,
                    kind=self.kind,
                    link=link,
                    marks=marks,
                    fwd=fwd,
                    bwd=bwd,
                    clip=clip,
                    adam=adam,
                    shard_bytes=shard_bytes,
                    param_shard_bytes=param_shard,
                    reduce_scatter=reduce_scatter,
                    all_gather=all_gather,
                    dma_setup_latency=hw.pcie.dma_setup_latency,
                    dirty_bytes=self.dirty_bytes,
                    grad_reduce=reducers[j].reduce if reducers else None,
                    grad_reduce_bytes=grad_reduce_bytes,
                ),
                name=f"job{j}-step",
            )
        sim.run()
        breakdowns = []
        for j, (marks, link) in enumerate(zip(all_marks, links)):
            _trace_phase_marks(
                sim, marks, system=f"{self.kind.value} x{n}{suffixes[j]}"
            )
            # ``link`` is *one* GPU's attachment; the job drives n of
            # them.  wire_bytes is the aggregate job traffic, per-link
            # traffic is reported alongside.  With in-fabric reduction
            # the gradient direction is the reducer's intake (n encoded
            # full gradients) instead of the n host-link shards.
            grad_wire = reducers[j].bytes_in if reducers else 0.0
            breakdowns.append(
                StepBreakdown(
                    forward=fwd,
                    backward=marks["bwd_end"] - marks["fwd_end"],
                    grad_transfer_exposed=(
                        marks["grads_on_cpu"] - marks["bwd_end"]
                    ),
                    grad_clip=clip,
                    optimizer=marks["adam_end"] - marks["clip_end"],
                    param_transfer_exposed=(
                        marks["params_on_gpu"] - marks["adam_end"]
                    ),
                    wire_bytes=link.bytes_sent * n + grad_wire,
                    wire_bytes_per_link=link.bytes_sent + grad_wire / n,
                )
            )
        return breakdowns
