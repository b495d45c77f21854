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

``ClusterEngine`` subclasses :class:`DataParallelEngine`, so both run
one job model.  With ``n_hosts=1, n_tenants=1`` and default fabric
provisioning it reproduces the :class:`DataParallelEngine` breakdown
(the fabric degenerates to one uncontended attachment; regression-tested
in ``tests/test_fabric.py``).  With ``n_hosts=n_gpus, n_tenants=1,
reduce_in_fabric=True`` it is one job whose gradients reduce in the
fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interconnect.aggregation import WireFormat, wire_bytes_for
from repro.interconnect.fabric import (
    CXLFabric,
    FabricParams,
    PartitionPolicy,
)
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.engines import SystemKind
from repro.offload.parallel import ClusterParams, DataParallelEngine
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


class ClusterEngine(DataParallelEngine):
    """``M`` concurrent ZeRO-sharded jobs over one shared CXL fabric.

    Each tenant is one :class:`DataParallelEngine` job (its intra-job
    data parallelism still described by :class:`ClusterParams`), but its
    representative host link is a :class:`FabricPort` instead of a
    private :class:`~repro.sim.SerialLink`.  This class adds only the
    fabric, the ports, the reducers and :class:`ClusterStepResult`; the
    job model is inherited.  Tenants are assigned to the ``n_hosts``
    ports round-robin, so ``n_tenants > n_hosts`` co-locates jobs on
    nodes (port contention) while any ``n_tenants > 1`` contends at the
    switch and pool stages.

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
        super().__init__(kind, spec, global_batch, cluster, hw, dirty_bytes)
        self.reduce_in_fabric = reduce_in_fabric
        self.grad_wire_format = WireFormat.parse(grad_wire_format)
        self.fabric_params = FabricParams(
            n_ports=n_hosts,
            n_tenants=n_tenants,
            port_bandwidth=self._link_bandwidth,
            port_latency=0.0,
            policy=policy,
            tenant_weights=tenant_weights,
        )

    def simulate_step(self) -> ClusterStepResult:
        """Simulate one step of every tenant, contending on the fabric."""
        params = self.fabric_params
        n, m = self.cluster.n_gpus, params.n_tenants
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        ports = tuple(t % params.n_ports for t in range(m))
        links = [fabric.port(ports[t], tenant=t) for t in range(m)]
        reducers = None
        grad_reduce_bytes = 0.0
        if self.reduce_in_fabric:
            # Each tenant's n_gpus ranks spread round-robin over the
            # fabric ports, starting at the tenant's own port.
            reducers = [
                fabric.reducer(
                    ranks=[(ports[t] + r) % params.n_ports for r in range(n)],
                    tenant=t,
                )
                for t in range(m)
            ]
            grad_reduce_bytes = wire_bytes_for(
                self.spec.gradient_bytes, self.grad_wire_format
            )
        breakdowns = self._run_jobs(
            sim, links, [f" tenant{t}" for t in range(m)], reducers,
            grad_reduce_bytes,
        )

        stats = fabric.stats

        def per_tenant(name: str) -> tuple[float, ...]:
            values = getattr(stats, name)
            return tuple(values.get(t, 0.0) for t in range(m))

        reduce_fields = ()
        if reducers is not None:
            reduce_fields = (
                "tenant_reduce_in_bytes",
                "tenant_reduce_out_bytes",
                "tenant_reduce_wait",
            )
        return ClusterStepResult(
            tenants=tuple(breakdowns),
            ports=ports,
            tenant_bytes=per_tenant("tenant_bytes"),
            port_bytes=tuple(
                stats.port_bytes.get(p, 0.0) for p in range(params.n_ports)
            ),
            tenant_switch_wait=per_tenant("tenant_switch_wait"),
            tenant_pool_wait=per_tenant("tenant_pool_wait"),
            **{name: per_tenant(name) for name in reduce_fields},
        )
