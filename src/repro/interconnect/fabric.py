"""Multi-host CXL memory-pool fabric: port links, switch, partitioned pool.

The paper evaluates one host with one CXL attachment, but its motivation
(Section II-A) is the large-scale data-parallel regime — many trainer
nodes contending for shared disaggregated memory.  This module models
that cluster topology in the style of CXL-ClusterSim / CXLRAMSim
(PAPERS.md): ``N`` host ports, each a private :class:`~repro.sim.SerialLink`,
feed a shared switch stage with its own serialization, which feeds a
memory pool whose bandwidth is partitioned across tenants.

Topology of one transfer (store-and-forward per stage, pipelined in
cells so a large transfer approaches the fluid cut-through limit)::

    host i ──port link i──▶ [ switch ] ──▶ [ pool partition(tenant) ]

Pool partitioning (:class:`PartitionPolicy`):

``SHARED``
    One FCFS pool link at full pool bandwidth — tenants contend freely
    (no isolation; a greedy tenant can starve others).
``FAIR_SHARE``
    The pool bandwidth is statically divided ``1/M`` per tenant — full
    isolation, but idle tenants' shares go unused.
``WEIGHTED``
    Static QoS split proportional to ``tenant_weights``.

Every stage is a real :class:`~repro.sim.SerialLink`, so per-link wire
spans land in Chrome traces for free; the fabric additionally emits
``switch-queue`` / ``pool-queue`` spans (category ``fabric``) whenever a
cell waits behind other tenants' traffic, and threads per-port /
per-tenant byte and wait accounting through :class:`FabricStats` and
``sim.metrics``.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field, fields

from repro.interconnect.cxl import CXLLinkModel
from repro.sim import SerialLink, SimEvent, Simulator
from repro.utils.units import NS, Bandwidth

__all__ = [
    "PartitionPolicy",
    "FabricParams",
    "FabricStats",
    "FabricPort",
    "CXLFabric",
]

#: One switch hop (arbitration + crossbar traversal) — a CXL 2.0 switch
#: adds on the order of 100-250 ns per direction.
DEFAULT_SWITCH_LATENCY = 250 * NS

#: Fixed access latency of the pooled memory device behind the switch.
DEFAULT_POOL_LATENCY = 150 * NS

#: Cells a transfer is split into for store-and-forward pipelining.
#: Residual pipelining error vs the fluid cut-through limit is about
#: ``(n_stages - 1) / cells`` of one stage traverse time.
DEFAULT_CELLS_PER_TRANSFER = 32

#: Transfers at or below this size cross the fabric as a single cell
#: (splitting a few hundred bytes would only multiply event count).
MIN_CELL_BYTES = 4096


_INF = float("inf")


def _check_amount(name: str, value: float) -> None:
    """Reject a byte count or delay that is negative, NaN or infinite."""
    if not 0.0 <= value < _INF:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _check_index(what: str, value, n: int, noun: str) -> int:
    """``value`` as an index below ``n``; ``ValueError`` if it is not one.

    Integer types of any kind (numpy's included) pass; a float is
    rejected rather than truncated to some other port or tenant.
    """
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} {value!r} is not an integer index")
    if not 0 <= value < n:
        raise ValueError(f"{what} {value} out of range (fabric has {n} {noun})")
    return int(value)


def _cell_sizes(n_bytes: float, cells_per_transfer: int) -> list[float]:
    """The pipelining cells one transfer of ``n_bytes`` is split into."""
    if n_bytes <= MIN_CELL_BYTES or cells_per_transfer == 1:
        return [n_bytes]
    return [n_bytes / cells_per_transfer] * cells_per_transfer


def _exit_time(
    link: SerialLink, now: float, n_bytes: float, extra_delay: float = 0.0
) -> float:
    """Book ``link`` for a cell arriving at ``now``; return when it leaves.

    ``now + (done_at - now)`` is the exact float at which
    :meth:`~repro.sim.SerialLink.transmit` called at ``now`` would fire
    its delivery event.
    """
    return now + (link.occupy(now, n_bytes, extra_delay) - now)


def _stage(
    fabric: "CXLFabric",
    link: SerialLink,
    now: float,
    cell: float,
    *,
    tenant: int,
    port: int,
    wait_stats: dict[int, float],
    span_name: str,
    track: str,
) -> float:
    """Send one cell arriving at ``now`` through a fabric stage.

    Returns the cell's exit time.  If the stage wire is busy at ``now``
    the wait is charged to ``wait_stats[tenant]`` and (when tracing)
    emitted as a ``span_name`` span in category ``fabric`` — the one
    place queueing is accounted, for :class:`FabricPort` transfers and
    the in-fabric reduce and gather stages alike.
    """
    wait = link.free_at - now
    if wait > 0.0:
        wait_stats[tenant] = wait_stats.get(tenant, 0.0) + wait
        tracer = fabric.sim.tracer
        if tracer.enabled:
            tracer.add_span(
                now,
                now + wait,
                span_name,
                "fabric",
                track=track,
                tenant=tenant,
                port=port,
                bytes=cell,
            )
    return _exit_time(link, now, cell)


def _tail(sim: Simulator, exits, done: SimEvent, value: float) -> None:
    """Trigger ``done`` after a chain of events at the times in ``exits``.

    Each event is pushed when the one before it fires, and ``done`` when
    the last one fires: the pushes an all-event pipeline makes for a
    transfer's last cell, so ``done`` keeps its place in ``(time, seq)``
    order even when the stages themselves were booked ahead.
    """
    pending = iter(exits)

    def hop(_ev: SimEvent | None = None) -> None:
        t = next(pending, None)
        if t is None:
            done.succeed(value)
        else:
            sim.at(t).callbacks.append(hop)

    hop()


class PartitionPolicy(enum.Enum):
    """How pool bandwidth is divided across tenants."""

    SHARED = "shared"
    FAIR_SHARE = "fair"
    WEIGHTED = "weighted"

    @classmethod
    def parse(cls, value: "PartitionPolicy | str") -> "PartitionPolicy":
        """Accept an enum member or its string value (CLI/registry use)."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(
            f"unknown partition policy {value!r}; "
            f"known: {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class FabricParams:
    """Static description of one multi-host fabric.

    Parameters
    ----------
    n_ports
        Host ports (one per trainer node).
    n_tenants
        Concurrent training jobs sharing the pool.  Tenants map onto
        ports by the caller (round-robin in
        :class:`repro.offload.cluster.ClusterEngine`); several tenants
        may share one port.
    port_bandwidth
        Per-port link bandwidth.  Defaults to the paper's CXL effective
        bandwidth (94.3% of PCIe 3.0 x16).
    port_latency
        Propagation latency of one port link.
    switch_bandwidth
        Aggregate switch serialization bandwidth.  ``None`` (default)
        sizes a non-blocking switch: ``n_ports x port_bandwidth``.
    switch_latency
        Per-cell switch hop latency.
    pool_bandwidth
        Memory-pool device bandwidth shared by all tenants.  ``None``
        (default) provisions ``2 x port_bandwidth`` — bandwidth-rich for
        one node, contended once aggregate demand exceeds it.
    pool_latency
        Pool device access latency.
    policy
        Pool partitioning mode.
    tenant_weights
        QoS weights, required (length ``n_tenants``) for ``WEIGHTED``.
    cells_per_transfer
        Pipelining granularity of :meth:`FabricPort.transmit`.
    """

    n_ports: int = 2
    n_tenants: int = 1
    port_bandwidth: Bandwidth = field(
        default_factory=lambda: CXLLinkModel.paper_default().effective_bandwidth
    )
    port_latency: float = CXLLinkModel.paper_default().latency
    switch_bandwidth: Bandwidth | None = None
    switch_latency: float = DEFAULT_SWITCH_LATENCY
    pool_bandwidth: Bandwidth | None = None
    pool_latency: float = DEFAULT_POOL_LATENCY
    policy: PartitionPolicy = PartitionPolicy.FAIR_SHARE
    tenant_weights: tuple[float, ...] | None = None
    cells_per_transfer: int = DEFAULT_CELLS_PER_TRANSFER

    def __post_init__(self) -> None:
        for count in ("n_ports", "n_tenants", "cells_per_transfer"):
            value = getattr(self, count)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{count} must be an integer >= 1, got {value!r}")
        for lat in ("port_latency", "switch_latency", "pool_latency"):
            _check_amount(lat, getattr(self, lat))
        object.__setattr__(self, "policy", PartitionPolicy.parse(self.policy))
        if self.policy is PartitionPolicy.WEIGHTED:
            w = self.tenant_weights
            if w is None or len(w) != self.n_tenants:
                raise ValueError(
                    "WEIGHTED policy needs tenant_weights of length n_tenants"
                )
            if not all(0.0 < x < _INF for x in w):
                raise ValueError(
                    f"tenant_weights must be finite and positive, got {w}"
                )

    @property
    def resolved_switch_bandwidth(self) -> Bandwidth:
        """Switch bandwidth with the non-blocking default applied."""
        if self.switch_bandwidth is not None:
            return self.switch_bandwidth
        return self.port_bandwidth.scaled(self.n_ports)

    @property
    def resolved_pool_bandwidth(self) -> Bandwidth:
        """Pool bandwidth with the 2x-port default applied."""
        if self.pool_bandwidth is not None:
            return self.pool_bandwidth
        return self.port_bandwidth.scaled(2.0)

    def tenant_share(self, tenant: int) -> float:
        """Fraction of pool bandwidth guaranteed to ``tenant``."""
        if not 0 <= tenant < self.n_tenants:
            raise ValueError(f"tenant {tenant} out of range")
        if self.policy is PartitionPolicy.SHARED:
            return 1.0
        if self.policy is PartitionPolicy.FAIR_SHARE:
            return 1.0 / self.n_tenants
        weights = self.tenant_weights or ()
        return weights[tenant] / sum(weights)


@dataclass
class FabricStats:
    """Per-port / per-tenant traffic and contention accounting.

    ``*_wait`` totals are queueing seconds accumulated by cells that
    found the stage wire busy on arrival — the fabric's contention
    breakdown (zero on an unloaded fabric).

    The ``reduce_*`` fields account the in-fabric aggregation stage
    (:class:`repro.interconnect.aggregation.FabricReducer`): per-rank
    encoded bytes entering the reducer, reduced bytes leaving it across
    the pool boundary, and seconds rank streams spent waiting for their
    peers' matching cells to arrive.  All stay zero when no reducer is
    attached.

    The ``gather_*`` fields account the in-fabric all-gather stage
    (:class:`repro.interconnect.gather.FabricGather`): per-rank shard
    bytes entering the gather unit through the port uplinks, replicated
    peer-shard bytes leaving it down the port links, and seconds shard
    streams spent waiting at the per-cell rank barrier.  All stay zero
    when no gather unit is attached.
    """

    port_bytes: dict[int, float] = field(default_factory=dict)
    tenant_bytes: dict[int, float] = field(default_factory=dict)
    tenant_switch_wait: dict[int, float] = field(default_factory=dict)
    tenant_pool_wait: dict[int, float] = field(default_factory=dict)
    tenant_reduce_in_bytes: dict[int, float] = field(default_factory=dict)
    tenant_reduce_out_bytes: dict[int, float] = field(default_factory=dict)
    tenant_reduce_wait: dict[int, float] = field(default_factory=dict)
    tenant_gather_in_bytes: dict[int, float] = field(default_factory=dict)
    tenant_gather_out_bytes: dict[int, float] = field(default_factory=dict)
    tenant_gather_wait: dict[int, float] = field(default_factory=dict)

    def _account_bytes(self, port: int, tenant: int, n_bytes: float) -> None:
        self.port_bytes[port] = self.port_bytes.get(port, 0.0) + n_bytes
        self.tenant_bytes[tenant] = self.tenant_bytes.get(tenant, 0.0) + n_bytes

    @property
    def total_bytes(self) -> float:
        """All payload bytes that entered the fabric."""
        return sum(self.tenant_bytes.values())

    @property
    def switch_wait(self) -> float:
        """Total switch queueing seconds across tenants."""
        return sum(self.tenant_switch_wait.values())

    @property
    def pool_wait(self) -> float:
        """Total pool queueing seconds across tenants."""
        return sum(self.tenant_pool_wait.values())

    @property
    def reduce_in_bytes(self) -> float:
        """Per-rank encoded bytes that entered the reduce stage."""
        return sum(self.tenant_reduce_in_bytes.values())

    @property
    def reduce_out_bytes(self) -> float:
        """Reduced bytes that crossed the pool boundary."""
        return sum(self.tenant_reduce_out_bytes.values())

    @property
    def reduce_wait(self) -> float:
        """Seconds rank streams waited for peer cells at the reducer."""
        return sum(self.tenant_reduce_wait.values())

    @property
    def gather_in_bytes(self) -> float:
        """Per-rank shard bytes that entered the gather stage."""
        return sum(self.tenant_gather_in_bytes.values())

    @property
    def gather_out_bytes(self) -> float:
        """Replicated peer-shard bytes multicast back down the ports."""
        return sum(self.tenant_gather_out_bytes.values())

    @property
    def gather_wait(self) -> float:
        """Seconds shard streams waited for peer cells at the gather."""
        return sum(self.tenant_gather_wait.values())

    def snapshot(self) -> dict:
        """JSON-ready copy (row material for experiments)."""
        names = [f.name for f in fields(self)]
        snap = {
            name: {str(k): v for k, v in sorted(getattr(self, name).items())}
            for name in names
        }
        # Each field after ``tenant_bytes`` has a total property named
        # without its ``tenant_`` prefix; ``total_bytes`` comes last.
        for name in names[2:]:
            total = name.removeprefix("tenant_")
            snap[total] = getattr(self, total)
        snap["total_bytes"] = self.total_bytes
        return snap


class FabricPort:
    """One tenant's attachment to a fabric port.

    Implements the :class:`~repro.sim.SerialLink`-shaped surface the
    offload engines and :class:`~repro.interconnect.cxl.CXLController`
    drive — ``transmit()``, ``free_at``, ``bytes_sent``, ``name`` — so a
    private host link can be swapped for a fabric attachment without
    touching engine code.  Several attachments may share the underlying
    port wire (multiple jobs on one node).
    """

    def __init__(self, fabric: "CXLFabric", port_index: int, tenant: int):
        self.fabric = fabric
        self.port_index = port_index
        self.tenant = tenant
        self.name = f"{fabric.name}-p{port_index}-t{tenant}"
        #: Payload bytes this attachment pushed into the fabric.
        self.bytes_sent = 0.0
        self._pool_link = fabric.pool_link_for(tenant)

    @property
    def sim(self) -> Simulator:
        """The simulator the fabric lives in."""
        return self.fabric.sim

    @property
    def _wire(self) -> SerialLink:
        return self.fabric.port_links[self.port_index]

    @property
    def free_at(self) -> float:
        """When the underlying port wire next idles (pipelining hint)."""
        return self._wire.free_at

    def transmit(self, n_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        """Send ``n_bytes`` through port -> switch -> pool.

        Returns the end-to-end delivery event (fires when the last cell
        leaves the pool stage).  ``extra_delay`` is charged once, ahead
        of the first cell (DMA setup / aggregation front-end).

        A stage whose only feed is the stage before it is booked when
        that stage books the cell; any other stage is booked by an event
        at the cell's exit from the stage before (see :class:`CXLFabric`).
        Only the last cell keeps an event per stage exit, which is all
        ``done`` needs to fire at its all-event place in ``(time, seq)``
        order.
        """
        _check_amount("n_bytes", n_bytes)
        _check_amount("extra_delay", extra_delay)
        fabric = self.fabric
        sim = fabric.sim
        self.bytes_sent += n_bytes
        fabric.stats._account_bytes(self.port_index, self.tenant, n_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(n_bytes)
            mx.counter(f"{fabric.name}.port{self.port_index}.bytes").inc(n_bytes)

        cells = _cell_sizes(n_bytes, fabric.params.cells_per_transfer)
        done = sim.event()
        now = sim.now
        wire = self._wire
        last = len(cells) - 1
        for i, cell in enumerate(cells):
            t_port = _exit_time(wire, now, cell, extra_delay if i == 0 else 0.0)
            tail = done if i == last else None
            if fabric._switch_books_with_port:
                t_switch = self._switch(t_port, cell)
                t_pool = self._pool(t_switch, cell)
                if tail is not None:
                    _tail(sim, (t_port, t_switch, t_pool), done, n_bytes)
            else:
                sim.at(t_port).callbacks.append(
                    lambda _ev, c=cell, d=tail: self._leave_port(c, d, n_bytes)
                )
        return done

    # -- stage hand-offs: ``done`` rides the last cell only (else None) ----
    def _leave_port(
        self, cell: float, done: SimEvent | None, n_bytes: float
    ) -> None:
        fabric = self.fabric
        sim = fabric.sim
        t_switch = self._switch(sim.now, cell)
        if fabric._pool_books_with_switch:
            t_pool = self._pool(t_switch, cell)
            if done is not None:
                _tail(sim, (t_switch, t_pool), done, n_bytes)
        else:
            sim.at(t_switch).callbacks.append(
                lambda _ev: self._leave_switch(cell, done, n_bytes)
            )

    def _leave_switch(
        self, cell: float, done: SimEvent | None, n_bytes: float
    ) -> None:
        sim = self.fabric.sim
        t_pool = self._pool(sim.now, cell)
        if done is not None:
            _tail(sim, (t_pool,), done, n_bytes)

    def _switch(self, now: float, cell: float) -> float:
        fabric = self.fabric
        return _stage(
            fabric,
            fabric.switch_link,
            now,
            cell,
            tenant=self.tenant,
            port=self.port_index,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=fabric.switch_link.name,
        )

    def _pool(self, now: float, cell: float) -> float:
        fabric = self.fabric
        pool = self._pool_link
        return _stage(
            fabric,
            pool,
            now,
            cell,
            tenant=self.tenant,
            port=self.port_index,
            wait_stats=fabric.stats.tenant_pool_wait,
            span_name="pool-queue",
            track=pool.name,
        )


class CXLFabric:
    """The discrete-event fabric: port wires, switch stage, pool stage.

    Build one per :class:`~repro.sim.Simulator`, then hand out tenant
    attachments with :meth:`port`::

        fabric = CXLFabric(sim, FabricParams(n_ports=4, n_tenants=8))
        link = fabric.port(port_index=3, tenant=6)
        yield link.transmit(chunk_bytes)

    **Booking rule.**  A :class:`~repro.sim.SerialLink` delivers in call
    order, so a stage fed by one upstream link alone sees its cells in
    that link's call order, each at its exit time.  Such a stage is
    booked for a cell the moment the upstream books it, with no event at
    the upstream exit.  The pool is fed by the switch alone unless a
    reducer is attached; the switch by one port link alone when
    ``n_ports == 1`` and no reducer or gather unit is attached.  Event
    counts thus scale with transfers, not cells, wherever this holds.
    """

    def __init__(
        self,
        sim: Simulator,
        params: FabricParams | None = None,
        name: str = "fabric",
    ):
        self.sim = sim
        self.params = params or FabricParams()
        self.name = name
        p = self.params
        self.port_links = [
            SerialLink(
                sim,
                p.port_bandwidth,
                latency=p.port_latency,
                name=f"{name}-port{i}",
            )
            for i in range(p.n_ports)
        ]
        self.switch_link = SerialLink(
            sim,
            p.resolved_switch_bandwidth,
            latency=p.switch_latency,
            name=f"{name}-switch",
        )
        pool_bw = p.resolved_pool_bandwidth
        if p.policy is PartitionPolicy.SHARED:
            self._pool_links = [
                SerialLink(
                    sim, pool_bw, latency=p.pool_latency, name=f"{name}-pool"
                )
            ]
        else:
            self._pool_links = [
                SerialLink(
                    sim,
                    pool_bw.scaled(p.tenant_share(t)),
                    latency=p.pool_latency,
                    name=f"{name}-pool-t{t}",
                )
                for t in range(p.n_tenants)
            ]
        self.stats = FabricStats()
        # Until a reducer or gather unit attaches, the switch is fed by
        # the port links alone and the pool by the switch alone.
        self._switch_books_with_port = p.n_ports == 1
        self._pool_books_with_switch = True

    def _attach_unit(self, name: str, *, feeds_pool: bool) -> None:
        """Register an in-fabric reducer or gather unit ``name``.

        The unit sends its own cells into the switch (and, for a reducer,
        into the pool), so those stages go back to booking at event time.
        Cells of transfers already in flight may have been booked ahead,
        and the unit's cells could not queue behind them in order: it
        must attach before the fabric carries any traffic.
        """
        if any(link.transfers for link in self.port_links):
            raise ValueError(
                f"{name} must attach to {self.name} before it carries traffic"
            )
        self._switch_books_with_port = False
        if feeds_pool:
            self._pool_books_with_switch = False

    def port(self, port_index: int, tenant: int = 0) -> FabricPort:
        """An attachment for ``tenant`` on host port ``port_index``."""
        p = self.params
        return FabricPort(
            self,
            _check_index("port", port_index, p.n_ports, "ports"),
            _check_index("tenant", tenant, p.n_tenants, "tenants"),
        )

    def pool_link_for(self, tenant: int) -> SerialLink:
        """The pool-stage link serving ``tenant`` under the policy."""
        if self.params.policy is PartitionPolicy.SHARED:
            return self._pool_links[0]
        return self._pool_links[tenant]

    @property
    def pool_links(self) -> list[SerialLink]:
        """All pool-stage links (one, or one per tenant)."""
        return list(self._pool_links)

    def reducer(self, ranks, tenant: int = 0, **kwargs):
        """An in-fabric reduction stage over ``ranks`` port indices.

        Convenience constructor for
        :class:`repro.interconnect.aggregation.FabricReducer` (imported
        lazily — aggregation depends on this module)::

            red = fabric.reducer(ranks=range(4), tenant=0)
            yield red.reduce(encoded_bytes_per_rank)
        """
        from repro.interconnect.aggregation import FabricReducer

        return FabricReducer(self, ranks, tenant=tenant, **kwargs)

    def gather_unit(self, ranks, tenant: int = 0, **kwargs):
        """An in-fabric all-gather stage over ``ranks`` port indices.

        Convenience constructor for
        :class:`repro.interconnect.gather.FabricGather` (imported lazily
        — gather depends on this module)::

            gat = fabric.gather_unit(ranks=range(4), tenant=0)
            yield gat.gather(shard_bytes_per_rank)
        """
        from repro.interconnect.gather import FabricGather

        return FabricGather(self, ranks, tenant=tenant, **kwargs)


class _RankUnit:
    """Skeleton of an in-fabric unit that collects one cell from every rank.

    ``ranks`` names the fabric port each rank's stream enters through
    (several ranks may share a port, serializing their cells on it).
    Every cell crosses its rank's port link and the shared switch stage;
    the unit then holds it at a per-cell barrier until the matching cell
    of every rank has arrived, charging early arrivals' wait to
    ``FabricStats.tenant_<kind>_wait`` and a ``<kind>-wait`` span.

    A subclass sets :attr:`kind` (which names its stats fields, metrics
    and spans) and :attr:`feeds_pool`, and supplies its public method and
    :meth:`_release` — what happens to a cell once every rank's is in.
    """

    #: ``"reduce"`` or ``"gather"``.
    kind: str
    #: Whether released cells enter the pool stage (see
    #: :meth:`CXLFabric._attach_unit`).
    feeds_pool: bool

    def __init__(
        self,
        fabric: "CXLFabric",
        ranks,
        *,
        tenant: int = 0,
        name: str | None = None,
    ):
        p = fabric.params
        self.fabric = fabric
        self.ranks = [
            _check_index("rank port", r, p.n_ports, "ports") for r in ranks
        ]
        if not self.ranks:
            raise ValueError(f"{type(self).__name__} needs at least one rank")
        self.tenant = _check_index("tenant", tenant, p.n_tenants, "tenants")
        self.name = name or f"{fabric.name}-{self.kind}-t{self.tenant}"
        #: Per-rank bytes this unit consumed through the port uplinks.
        self.bytes_in = 0.0
        #: Bytes sent on past the barrier: reduced cells into the pool,
        #: or peer cells multicast back down the ports.
        self.bytes_out = 0.0
        fabric._attach_unit(self.name, feeds_pool=self.feeds_pool)

    @property
    def n_ranks(self) -> int:
        """Rank streams collected per operation."""
        return len(self.ranks)

    def _add(self, field_name: str, n: float) -> None:
        """Add ``n`` to this tenant's entry of ``FabricStats.<field_name>``."""
        per_tenant = getattr(self.fabric.stats, field_name)
        per_tenant[self.tenant] = per_tenant.get(self.tenant, 0.0) + n

    def _collect(
        self, n_bytes: float, extra_delay: float, per_cell: int
    ) -> SimEvent:
        """Uplink one ``n_bytes`` stream from every rank.

        Returns the event that fires once each cell has made
        ``per_cell`` calls to the ``delivered`` callback handed to
        :meth:`_release`.  ``extra_delay`` is charged once per rank
        ahead of its first cell.
        """
        fabric = self.fabric
        sim = fabric.sim
        in_bytes = n_bytes * self.n_ranks
        self.bytes_in += in_bytes
        self._add(f"tenant_{self.kind}_in_bytes", in_bytes)
        for port in self.ranks:
            fabric.stats._account_bytes(port, self.tenant, n_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.{self.kind}.in_bytes").inc(in_bytes)
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(
                in_bytes
            )

        cell_sizes = _cell_sizes(n_bytes, fabric.params.cells_per_transfer)
        done = sim.event()
        remaining = len(cell_sizes) * per_cell

        def delivered(_ev: SimEvent) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(n_bytes)

        for i, cell in enumerate(cell_sizes):
            state = {"arrived": 0, "first": None}
            for port in self.ranks:
                port_ev = fabric.port_links[port].transmit(
                    cell, extra_delay=extra_delay if i == 0 else 0.0
                )
                port_ev.callbacks.append(
                    lambda _ev, c=cell, p=port, s=state: self._enter_switch(
                        c, p, s, delivered
                    )
                )
        return done

    # -- stage hand-offs (event callbacks at stage-exit times) -------------
    def _enter_switch(self, cell: float, port: int, state, delivered) -> None:
        fabric = self.fabric
        sim = fabric.sim
        t_switch = _stage(
            fabric,
            fabric.switch_link,
            sim.now,
            cell,
            tenant=self.tenant,
            port=port,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=fabric.switch_link.name,
        )
        sim.at(t_switch).callbacks.append(
            lambda _ev: self._arrive(cell, state, delivered)
        )

    def _arrive(self, cell: float, state, delivered) -> None:
        sim = self.fabric.sim
        now = sim.now
        if state["first"] is None:
            state["first"] = now
        state["arrived"] += 1
        if state["arrived"] < self.n_ranks:
            return
        # Last rank's cell is in: early arrivals waited for it.
        wait = now - state["first"]
        if wait > 0.0:
            self._add(f"tenant_{self.kind}_wait", wait)
            if sim.tracer.enabled:
                sim.tracer.add_span(
                    state["first"],
                    now,
                    f"{self.kind}-wait",
                    "fabric",
                    track=self.name,
                    tenant=self.tenant,
                    bytes=cell,
                )
        self._release(cell, delivered)

    def _release(self, cell: float, delivered) -> None:
        """Forward one barrier-complete ``cell``; calls ``delivered`` per delivery."""
        raise NotImplementedError

    def _account_out(self, n_bytes: float) -> None:
        """Charge ``n_bytes`` leaving the unit to its out-byte accounting."""
        fabric = self.fabric
        self.bytes_out += n_bytes
        self._add(f"tenant_{self.kind}_out_bytes", n_bytes)
        mx = fabric.sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.{self.kind}.out_bytes").inc(n_bytes)
