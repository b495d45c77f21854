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
import heapq
import numbers
from bisect import bisect_right
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
    rejected rather than truncated to some other port or tenant, and a
    ``bool`` rather than read as port or tenant 0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} {value!r} is not an integer index")
    if not 0 <= value < n:
        raise ValueError(f"{what} {value} out of range (fabric has {n} {noun})")
    return int(value)


def _cell_sizes(n_bytes: float, cells_per_transfer: int) -> list[float]:
    """The pipelining cells one transfer of ``n_bytes`` is split into."""
    if n_bytes <= MIN_CELL_BYTES or cells_per_transfer == 1:
        return [n_bytes]
    return [n_bytes / cells_per_transfer] * cells_per_transfer


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

    Returns the cell's exit time, ``now + (done_at - now)``: the exact
    float at which :meth:`~repro.sim.SerialLink.transmit` called at
    ``now`` would fire its delivery event.  If the stage wire is busy at
    ``now`` the wait goes through :func:`_charge_wait`.  This is the
    per-cell stage of the in-fabric reduce and gather units and of
    :class:`FabricPort` cells once a unit is attached.
    """
    wait = link.free_at - now
    if wait > 0.0:
        _charge_wait(
            fabric, wait_stats, now, wait, span_name, track, tenant, port, cell
        )
    return now + (link.occupy(now, cell) - now)


def _charge_wait(
    fabric: "CXLFabric",
    wait_stats: dict[int, float],
    t: float,
    wait: float,
    span_name: str,
    track: str,
    tenant: int,
    port: int,
    cell: float,
) -> None:
    """Account a cell that arrived at ``t`` and queued a positive ``wait``.

    The wait is added to ``wait_stats[tenant]`` and, when tracing,
    emitted as a ``span_name`` span in category ``fabric``: the one
    place queueing is accounted, for per-cell stages and merged drains
    alike.
    """
    wait_stats[tenant] = wait_stats.get(tenant, 0.0) + wait
    tracer = fabric.sim.tracer
    if tracer.enabled:
        tracer.add_span(
            t,
            t + wait,
            span_name,
            "fabric",
            track=track,
            tenant=tenant,
            port=port,
            bytes=cell,
        )


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


def _book_by_link(owners, arrivals, sizes) -> tuple[list[float], list[float]]:
    """Book each cell into its train's pool link, each link in cell order.

    Returns the exits and waits, indexed like ``owners``.
    """
    by_link: dict[SerialLink, list[int]] = {}
    for k, train in enumerate(owners):
        by_link.setdefault(train.pool, []).append(k)
    exits = [0.0] * len(owners)
    waits = [0.0] * len(owners)
    for link, ks in by_link.items():
        link_exits, link_waits = link.book(
            [arrivals[k] for k in ks], [sizes[k] for k in ks]
        )
        for k, t, wait in zip(ks, link_exits, link_waits):
            exits[k] = t
            waits[k] = wait
    return exits, waits


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
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < 1
            ):
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
        tenant = _check_index("tenant", tenant, self.n_tenants, "tenants")
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

        The whole port train is booked now.  Its switch and pool stages
        are booked by the fabric's arrival merge (see :class:`CXLFabric`)
        from one event at the last cell's port exit, or, once a reducer
        or gather unit is attached, by an event at each cell's port exit.
        Either way ``done`` fires at its all-event place in
        ``(time, seq)`` order.
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
        now = sim.now
        exits, _ = self._wire.book([now] * len(cells), cells, extra_delay)
        done = sim.event()
        if fabric._merge_arrivals:
            fabric._register(self, exits, cells[0], done, n_bytes)
            return done
        last = len(cells) - 1
        for i, (t_port, cell) in enumerate(zip(exits, cells)):
            tail = done if i == last else None
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


class _Train:
    """One :class:`FabricPort` transfer's cells between port and switch."""

    __slots__ = (
        "tenant", "port_index", "pool", "times", "cell", "next", "last_exits"
    )

    def __init__(self, port: FabricPort, times: list[float], cell: float):
        self.tenant = port.tenant
        self.port_index = port.port_index
        self.pool = port._pool_link
        #: Each cell's port exit = switch arrival, non-decreasing.
        self.times = times
        self.cell = cell
        #: Index of the first cell not yet booked into the switch.
        self.next = 0
        #: The last cell's ``(switch exit, pool exit)`` once booked.
        self.last_exits: tuple[float, ...] = ()


class CXLFabric:
    """The discrete-event fabric: port wires, switch stage, pool stage.

    Build one per :class:`~repro.sim.Simulator`, then hand out tenant
    attachments with :meth:`port`::

        fabric = CXLFabric(sim, FabricParams(n_ports=4, n_tenants=8))
        link = fabric.port(port_index=3, tenant=6)
        yield link.transmit(chunk_bytes)

    **Booking rule.**  A :class:`FabricPort` transfer books its whole
    port train when it is sent and registers each cell's switch arrival
    (its port exit) with the fabric, keyed ``(port exit, registration
    order, cell index)`` — the ``(time, seq)`` order in which one event
    per port exit would fire.  It pushes one event, at its last cell's
    port exit.  That event drains every registered arrival due by then,
    in key order: it books the switch, books each pool link for that
    link's cells in switch order (a :class:`~repro.sim.SerialLink`
    delivers in call order, so the pool, fed by the switch alone, is
    booked at the hand-off), charges queueing waits in that same order,
    and starts the transfer's ``switch exit -> pool exit -> done``
    event chain.  A cell registered later exits its port no earlier than
    the drain's time and, on a tie, sorts after every cell drained.
    Event counts thus scale with transfers, not cells.  Switch and pool
    state and the wait stats settle at each drain, so a read after
    ``sim.run(until=t)`` may lag cells still between port and switch.

    A reducer or gather unit sends its own cells into the switch (and a
    reducer into the pool) from per-cell events, so once one is attached
    the fabric books those stages by an event at each cell's exit from
    the stage before.
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
        self._merge_arrivals = True
        self._pool_books_with_switch = True
        #: Port trains with cells not yet booked into the switch, keyed
        #: ``(next cell's port exit, registration order, train)``.
        self._arrivals: list[tuple[float, int, _Train]] = []
        self._registered = 0

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
        self._merge_arrivals = False
        if feeds_pool:
            self._pool_books_with_switch = False

    def _register(
        self,
        port: FabricPort,
        exits: list[float],
        cell: float,
        done: SimEvent,
        n_bytes: float,
    ) -> None:
        """Queue a booked port train's switch arrivals (``exits``).

        One event, at the last cell's port exit, drains the arrivals due
        by then and starts ``done``'s chain through switch and pool.
        """
        train = _Train(port, exits, cell)
        self._registered += 1
        heapq.heappush(self._arrivals, (exits[0], self._registered, train))

        def settle(_ev: SimEvent) -> None:
            self._drain(self.sim.now)
            _tail(self.sim, train.last_exits, done, n_bytes)

        self.sim.at(exits[-1]).callbacks.append(settle)

    def _drain(self, now: float) -> None:
        """Book switch and pool for every pending arrival at or before ``now``.

        Cells are booked in ``(port exit, registration, cell index)``
        order, the ``(time, seq)`` order one event per port exit would
        fire in; each pool link sees its cells in switch order, and waits
        are charged in that order too.  Any train registered later exits
        its port no earlier than ``now`` and, on a tie, sorts after
        everything drained here.
        """
        heap = self._arrivals
        runs = []
        while heap and heap[0][0] <= now:
            _, order, train = heapq.heappop(heap)
            times = train.times
            lo = train.next
            train.next = hi = bisect_right(times, now, lo)
            runs.append((order, train, lo, hi))
            if hi < len(times):
                heapq.heappush(heap, (times[hi], order, train))
        if not runs:
            return
        runs.sort()  # by registration order, which is unique
        times, trains = [], []
        for _, train, lo, hi in runs:
            times += train.times[lo:hi]
            trains += [train] * (hi - lo)
        # Stable on time alone: ties keep (registration, cell) order.
        merged = sorted(range(len(times)), key=times.__getitem__)
        arrivals = [times[i] for i in merged]
        owners = [trains[i] for i in merged]
        sizes = [train.cell for train in owners]
        stats = self.stats
        t_switch, switch_waits = self.switch_link.book(arrivals, sizes)
        t_pool, pool_waits = _book_by_link(owners, t_switch, sizes)
        switch_track = self.switch_link.name
        for k, train in enumerate(owners):
            wait = switch_waits[k]
            if wait > 0.0:
                _charge_wait(
                    self, stats.tenant_switch_wait, arrivals[k], wait,
                    "switch-queue", switch_track,
                    train.tenant, train.port_index, train.cell,
                )
            wait = pool_waits[k]
            if wait > 0.0:
                _charge_wait(
                    self, stats.tenant_pool_wait, t_switch[k], wait,
                    "pool-queue", train.pool.name,
                    train.tenant, train.port_index, train.cell,
                )
        # A train's last cell is its last in merged order.
        finished = {train for _, train, _, hi in runs if hi == len(train.times)}
        for k in reversed(range(len(owners))):
            train = owners[k]
            if train in finished:
                train.last_exits = (t_switch[k], t_pool[k])
                finished.discard(train)
                if not finished:
                    break

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
