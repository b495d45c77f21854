"""Multi-tenant cluster step simulation over the shared CXL fabric.

:class:`~repro.offload.parallel.DataParallelEngine` models one training
job whose representative GPU owns a *private* host link.
:class:`ClusterEngine` generalizes that seam to the paper's motivating
regime: ``M`` concurrent training jobs (tenants) on ``N`` trainer nodes,
every host link an attachment to one shared
:class:`~repro.interconnect.fabric.CXLFabric` — per-port serial links
into a switch stage into a bandwidth-partitioned memory pool.  All
tenants step inside one :class:`~repro.sim.Simulator`, so switch and
pool contention emerges from the discrete-event timeline instead of
being charged analytically.

With ``n_hosts=1, n_tenants=1`` and default fabric provisioning the
engine reproduces the :class:`DataParallelEngine` breakdown (the fabric
degenerates to one uncontended attachment; regression-tested in
``tests/test_fabric.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dba.registers import check_dirty_bytes
from repro.interconnect.fabric import (
    CXLFabric,
    FabricParams,
    PartitionPolicy,
)
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.engines import SystemKind, _trace_phase_marks
from repro.offload.parallel import ClusterParams, dp_step_process
from repro.offload.timing import HardwareParams
from repro.sim import Simulator

__all__ = ["ClusterEngine", "ClusterStepResult"]


@dataclass(frozen=True)
class ClusterStepResult:
    """One simulated cluster step: per-tenant breakdowns + fabric stats."""

    tenants: tuple[StepBreakdown, ...]
    #: Which fabric port each tenant's node is attached to.
    ports: tuple[int, ...]
    #: Payload bytes each tenant pushed through the fabric.
    tenant_bytes: tuple[float, ...]
    #: Payload bytes that crossed each fabric port.
    port_bytes: tuple[float, ...]
    #: Switch queueing seconds per tenant (contention behind other
    #: tenants' cells at the switch stage).
    tenant_switch_wait: tuple[float, ...]
    #: Pool queueing seconds per tenant.
    tenant_pool_wait: tuple[float, ...]
    #: Per-rank encoded bytes each tenant streamed into the in-fabric
    #: reducer (empty when ``reduce_in_fabric`` is off).
    tenant_reduce_in_bytes: tuple[float, ...] = ()
    #: Reduced bytes each tenant's reducer pushed across the pool
    #: boundary (empty when ``reduce_in_fabric`` is off).
    tenant_reduce_out_bytes: tuple[float, ...] = ()
    #: Seconds each tenant's rank streams waited for peer cells at the
    #: reducer barrier (empty when ``reduce_in_fabric`` is off).
    tenant_reduce_wait: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a cluster step needs at least one tenant")

    @property
    def makespan(self) -> float:
        """Slowest tenant's step time (the cluster-step critical path)."""
        return max(t.total for t in self.tenants)

    @property
    def mean_step(self) -> float:
        """Mean per-tenant step time."""
        return sum(t.total for t in self.tenants) / len(self.tenants)

    @property
    def switch_wait(self) -> float:
        """Total switch queueing seconds across tenants."""
        return sum(self.tenant_switch_wait)

    @property
    def pool_wait(self) -> float:
        """Total pool queueing seconds across tenants."""
        return sum(self.tenant_pool_wait)

    @property
    def contention_wait(self) -> float:
        """All fabric queueing seconds (switch + pool)."""
        return self.switch_wait + self.pool_wait

    @property
    def fabric_bytes(self) -> float:
        """Payload bytes that entered the fabric (all tenants)."""
        return sum(self.tenant_bytes)

    @property
    def reduce_in_bytes(self) -> float:
        """Encoded bytes that entered the reduce stage (all tenants)."""
        return sum(self.tenant_reduce_in_bytes)

    @property
    def reduce_out_bytes(self) -> float:
        """Reduced bytes that crossed the pool boundary (all tenants)."""
        return sum(self.tenant_reduce_out_bytes)


class ClusterEngine:
    """``M`` concurrent ZeRO-sharded jobs over one shared CXL fabric.

    Each tenant is one training job running the
    :func:`~repro.offload.parallel.dp_step_process` step (its intra-job
    data parallelism still described by :class:`ClusterParams`), but its
    representative host link is a :class:`FabricPort` instead of a
    private :class:`~repro.sim.SerialLink`.  Tenants are assigned to the
    ``n_hosts`` ports round-robin, so ``n_tenants > n_hosts`` co-locates
    jobs on nodes (port contention) while any ``n_tenants > 1`` contends
    at the switch and pool stages.

    Parameters
    ----------
    kind
        System configuration every tenant runs (one of the Figure 11
        systems).  ZeRO-Offload tenants get PCIe-bandwidth ports; TECO
        tenants get CXL-efficiency ports.
    spec, global_batch, cluster, hw, dirty_bytes
        Per-job parameters, exactly as in :class:`DataParallelEngine`.
    n_hosts
        Trainer nodes = fabric ports.
    n_tenants
        Concurrent jobs sharing the fabric.
    policy
        Pool partitioning mode (or its string value).
    tenant_weights
        QoS weights for ``WEIGHTED`` partitioning.
    reduce_in_fabric
        When true, every tenant's gradient direction runs through its
        own :class:`~repro.interconnect.aggregation.FabricReducer` —
        its ``n_gpus`` ranks (spread round-robin over the fabric ports
        starting at the tenant's own port) each stream the full encoded
        gradient into the fabric, and one reduced stream crosses the
        tenant's pool partition.  Ring-allreduce time disappears from
        the step.  Off by default; the disabled path is bit-identical
        to the pre-aggregation engine (regression-tested).
    grad_wire_format
        Wire format gradients travel in under ``reduce_in_fabric``
        (:class:`~repro.interconnect.aggregation.WireFormat` or its
        string value).
    """

    def __init__(
        self,
        kind: SystemKind,
        spec: ModelSpec,
        global_batch: int,
        cluster: ClusterParams | None = None,
        hw: HardwareParams | None = None,
        *,
        n_hosts: int = 1,
        n_tenants: int = 1,
        policy: PartitionPolicy | str = PartitionPolicy.FAIR_SHARE,
        tenant_weights: tuple[float, ...] | None = None,
        dirty_bytes: int = 2,
        reduce_in_fabric: bool = False,
        grad_wire_format="fp32",
    ):
        from repro.interconnect.aggregation import WireFormat

        self.reduce_in_fabric = reduce_in_fabric
        self.grad_wire_format = WireFormat.parse(grad_wire_format)
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
        if kind is SystemKind.ZERO_OFFLOAD:
            port_bw = self.hw.pcie.effective_bandwidth
        else:
            port_bw = self.hw.cxl.effective_bandwidth
        self.fabric_params = FabricParams(
            n_ports=n_hosts,
            n_tenants=n_tenants,
            port_bandwidth=port_bw,
            port_latency=0.0,
            policy=policy,
            tenant_weights=tenant_weights,
        )

    @property
    def n_hosts(self) -> int:
        """Trainer nodes (= fabric ports)."""
        return self.fabric_params.n_ports

    @property
    def n_tenants(self) -> int:
        """Concurrent jobs sharing the fabric."""
        return self.fabric_params.n_tenants

    @property
    def micro_batch(self) -> int:
        """Per-GPU batch size of each job."""
        return self.global_batch // self.cluster.n_gpus

    def simulate_step(self) -> ClusterStepResult:
        """Simulate one step of every tenant, contending on the fabric."""
        spec, hw, n = self.spec, self.hw, self.cluster.n_gpus
        params = self.fabric_params
        micro = self.micro_batch
        fwd = hw.forward_time(spec, micro)
        bwd = hw.backward_time(spec, micro)
        clip = hw.grad_clip_time(spec)
        adam = hw.adam_time(spec)
        shard_bytes = spec.gradient_bytes / n
        param_shard = spec.param_bytes / n
        reduce_scatter = self.cluster.ring_time(shard_bytes)
        all_gather = self.cluster.ring_time(param_shard)

        sim = Simulator()
        fabric = CXLFabric(sim, params)
        ports = tuple(t % params.n_ports for t in range(params.n_tenants))
        links = [fabric.port(ports[t], tenant=t) for t in range(params.n_tenants)]
        reducers = None
        grad_reduce_bytes = 0.0
        if self.reduce_in_fabric:
            from repro.interconnect.aggregation import wire_bytes_for

            # Each tenant's n_gpus ranks spread round-robin over the
            # fabric ports, starting at the tenant's own port.
            reducers = [
                fabric.reducer(
                    ranks=[
                        (ports[t] + r) % params.n_ports for r in range(n)
                    ],
                    tenant=t,
                )
                for t in range(params.n_tenants)
            ]
            grad_reduce_bytes = wire_bytes_for(
                spec.gradient_bytes, self.grad_wire_format
            )
        all_marks: list[dict[str, float]] = []
        for t, link in enumerate(links):
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
                    grad_reduce=(
                        reducers[t].reduce if reducers is not None else None
                    ),
                    grad_reduce_bytes=grad_reduce_bytes,
                ),
                name=f"tenant{t}-step",
            )
        sim.run()

        stats = fabric.stats
        breakdowns = []
        for t, (marks, link) in enumerate(zip(all_marks, links)):
            _trace_phase_marks(
                sim,
                marks,
                system=f"{self.kind.value} x{n} tenant{t}",
            )
            # Under reduce_in_fabric the gradient direction is the
            # tenant's reducer intake (n encoded full gradients), not
            # host-link shard traffic.
            grad_wire = reducers[t].bytes_in if reducers is not None else 0.0
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
        m = params.n_tenants
        reduce_kwargs = {}
        if reducers is not None:
            reduce_kwargs = {
                "tenant_reduce_in_bytes": tuple(
                    stats.tenant_reduce_in_bytes.get(t, 0.0)
                    for t in range(m)
                ),
                "tenant_reduce_out_bytes": tuple(
                    stats.tenant_reduce_out_bytes.get(t, 0.0)
                    for t in range(m)
                ),
                "tenant_reduce_wait": tuple(
                    stats.tenant_reduce_wait.get(t, 0.0) for t in range(m)
                ),
            }
        return ClusterStepResult(
            tenants=tuple(breakdowns),
            ports=ports,
            tenant_bytes=tuple(
                stats.tenant_bytes.get(t, 0.0) for t in range(m)
            ),
            port_bytes=tuple(
                stats.port_bytes.get(p, 0.0) for p in range(params.n_ports)
            ),
            tenant_switch_wait=tuple(
                stats.tenant_switch_wait.get(t, 0.0) for t in range(m)
            ),
            tenant_pool_wait=tuple(
                stats.tenant_pool_wait.get(t, 0.0) for t in range(m)
            ),
            **reduce_kwargs,
        )
